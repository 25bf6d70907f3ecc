"""Fast self-check of the benchmark at tiny sizes (under a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs all three workloads end to end, untraced and traced, and checks that:

* every output check passed (no failed operation);
* every end-to-end metric of BENCHMARK.json is emitted untraced, and every
  per-layer metric traced, each as a finite number; end-to-end ones nonzero;
* every workload-specific name in metric_map.json is reported on its workloads;
* the self times of the spans inside the traced pass sum to no more than its
  `trace.wall_s`, and those inside set-up to no more than set-up;
* the command of BENCHMARK.json exits 0 and ends its output with the result
  line (`correct`, `attempted`, `failed`, `metrics`);
* in a directory holding only BENCHMARK.json and this directory, run.py
  exits with a nonzero status and prints nothing on standard output.

Exits 0 when everything holds, 1 otherwise, listing each failed check.
"""

import json
import math
import shutil
import subprocess
import sys

import run

TINY_SECONDS = 1.0


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = json.loads((run.HERE / "metric_map.json").read_text(encoding="utf-8"))["workload_names"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for trace in (0, 1):
        for workload in run.WORKLOADS:
            o = run.run_workload(workload, 0, TINY_SECONDS, trace, "tiny", bench)
            run.print_outcome(o, units)
            where = f"{workload} trace {trace}"
            check(o["correct"] and o["failed"] == 0, f"{where}: {o['failed']} failed operations")
            expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            metrics = o["metrics"]
            check(list(metrics) == expected, f"{where}: metrics {sorted(metrics)} != {sorted(expected)}")
            for m in expected:
                v = metrics.get(m)
                check(isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {m} = {v}")
                if not trace:
                    check(bool(v), f"{where}: end-to-end metric {m} is 0")
            if not trace:
                for alias, info in names.items():
                    if workload in info.get("workloads", []) and alias != "error_rate":
                        v = o.get("report", {}).get(alias, metrics.get(alias))
                        check(isinstance(v, (int, float)), f"{where}: {alias} not reported")
                check(0.0 <= o["error_rate"] <= 1.0, f"{where}: error_rate {o['error_rate']}")
            else:
                for region, (covered, duration) in o["balance"].items():
                    check(covered <= duration + 1e-9,
                          f"{where}: self times in {region} sum to {covered:.6f} s > {duration:.6f} s")
                check(o["balance"]["pass"][1] > 0, f"{where}: no traced pass time")
                covered, wall = o["balance"]["pass"][0], metrics["trace.wall_s"]
                check(covered <= wall, f"{where}: traced self times {covered:.6f} s > wall_s {wall:.6f} s")

    command = [sys.executable, *bench["command"][1:]]
    proc = subprocess.run([*command, "--workload", "score_full", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--size", "tiny"], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=180)
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        last = {}
    check(proc.returncode == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"]
          and last["correct"], f"command: exit {proc.returncode}, last line {proc.stdout[-300:]!r}")

    bare = run.ROOT / ".bench_runs" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*command, "--workload", "cv_sanity", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} failed checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
