"""frnet benchmark: run one workload, or all three, and print their metrics.

    python3 perfbench/run.py --workload cv_sanity|train_full|score_full|all
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run it from anywhere inside a checkout of the repository; it imports the
program from `src/` of that checkout and writes only under `.bench_runs/`
there. Each workload runs in fresh child processes, one at a time, with
OpenBLAS limited to the CPUs this process may use. Peak RSS is the
measuring child's own `ru_maxrss`; score_full writes its inputs from a
separate child first.

With `--trace 0` the metrics are the end-to-end ones listed in
BENCHMARK.json. With `--trace 1` an untraced child runs first, then a
traced one, and the metrics are the per-layer ones plus the tracing
overhead (traced `wall_s` minus untraced `wall_s`). Human-readable lines
come first, including the workload-specific metrics by the names the
metric map uses; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A child that dies or runs
out of time is counted as failed and does not stop the other workloads.
Without `src/frnet` next to this directory the command exits with status 2
and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cv_sanity", "train_full", "score_full")
SETUP_REPS = 3  # set-ups per untraced run; setup_s takes their median
IMPORT_PROBES = 7  # fresh interpreters timed importing frnet; setup_s takes the median
WORKLOAD_BUDGET_S = 170.0  # every child process of one workload together
POLL_S = 0.05

# Workload-specific metrics under the names the metric map (metric_map.json)
# gives them, as views of the end-to-end metrics every workload emits.
ALIASES = {
    "cv_sanity": {"train_samples_per_s": "rows_per_s", "step_s_p50": "step_s_p50",
                  "step_s_p90": "step_s_p90"},
    "train_full": {"train_samples_per_s": "rows_per_s", "step_s_p50": "step_s_p50"},
    "score_full": {"score_rows_per_s": "rows_per_s", "rank_s_p50": "step_s_p50"},
}
REPORT_UNITS = {"step_s_p90": "s", "cv_mean_auroc": "1", "final_loss": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv: list[str], log_path: Path, deadline: float, env: dict) -> tuple[int | None, float]:
    """Run workloads.py in a child and wait for it.

    Returns (exit code, peak RSS in MB); the code is None when the child was
    killed at the deadline.
    """
    with open(log_path, "a", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *argv],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    code = None
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                break
            time.sleep(POLL_S)
    finally:
        if code is None:  # deadline, or this process is being stopped
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, usage.ru_maxrss / 1024.0


def import_seconds(env: dict) -> float:
    """Median time from starting an interpreter to its having imported frnet.

    The probe reads the clock itself once the import returns: waiting with a
    timeout polls the child every 50 ms, which would round the time up to that.
    CLOCK_MONOTONIC is shared by every process on Linux.
    """
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.monotonic()
        probe = subprocess.run([sys.executable, "-c", "import time, frnet; print(time.monotonic())"],
                               cwd=ROOT, env=env, check=True, timeout=60, capture_output=True,
                               text=True)
        times.append(float(probe.stdout) - t0)
    return statistics.median(times)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(result: dict, import_s: float) -> dict[str, float]:
    steps, passes = result["step_s"], result["pass_s"]
    return {
        "setup_s": import_s + result["setup_s"],
        "wall_s": statistics.median(passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "step_s_p50": statistics.median(steps),
        "step_s_p90": _p90(steps),
        "rows_per_s": result["rows"] / sum(passes),
    }


class Failure(Exception):
    pass


def measure(name, seed, seconds, size, trace, reps, run_dir, work, deadline, env) -> dict:
    """One measuring child; returns its result.json plus peak RSS."""
    out = run_dir / ("traced" if trace else "untraced")
    out.mkdir(parents=True, exist_ok=True)
    code, rss = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size, "--setup-reps", str(reps), "--out", str(out), "--work", str(work)],
        run_dir / "child.log", deadline, env,
    )
    result_path = out / "result.json"
    if code != 0 or not result_path.is_file():
        why = "ran out of time" if code is None else f"exited with status {code}"
        raise Failure(f"{name}: {'traced' if trace else 'untraced'} child {why}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not result["pass_s"]:
        raise Failure(f"{name}: no pass completed")
    result["peak_rss_mb"] = rss
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, bench: dict) -> dict:
    """Run one workload in fresh children; never raises for a failed child."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    run_dir = ROOT / ".bench_runs" / f"{name}-seed{seed}-trace{trace}-{size}-{time.time_ns()}"
    work = run_dir / "work"
    work.mkdir(parents=True)
    env = child_env()
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    outcome = {"workload": name, "seed": seed, "trace": trace, "size": size, "run_dir": str(run_dir)}
    attempted = failed = 0
    try:
        if name == "score_full":
            # inputs come from their own process, so peak RSS is the ranking's alone
            code, _ = spawn(["--workload", name, "--seed", str(seed), "--size", size, "--phase",
                             "prepare", "--seconds", "0", "--out", str(run_dir), "--work", str(work)],
                            run_dir / "child.log", deadline, env)
            if code != 0:
                raise Failure(f"{name}: input preparation failed")
        import_s = import_seconds(env)
        reps = 1 if trace else SETUP_REPS
        untraced = measure(name, seed, seconds, size, 0, reps, run_dir, work, deadline, env)
        attempted, failed = untraced["attempted"], untraced["failed"]
        e2e = end_to_end(untraced, import_s)
        outcome["env"] = untraced["env"]
        outcome["checks"] = untraced["checks"]
        outcome["report"] = {alias: e2e[m] for alias, m in ALIASES[name].items()}
        outcome["report"].update(untraced["checks"])
        if trace:
            # one traced pass, so that the per-layer totals are those of one pass
            traced = measure(name, seed, 0, size, 1, reps, run_dir, work, deadline, env)
            attempted += traced["attempted"]
            failed += traced["failed"]
            traced_wall = statistics.median(traced["pass_s"])
            values = dict(traced["layers"])
            values["trace.wall_s"] = traced_wall
            values["trace.untraced_wall_s"] = e2e["wall_s"]
            values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
            outcome["balance"] = traced["balance"]
        else:
            values = e2e
        outcome["metrics"] = {m: values[m] for m in names}
        outcome["error_rate"] = failed / attempted if attempted else 1.0
    except (Failure, subprocess.SubprocessError, OSError) as e:
        print(f"{name}: FAILED: {e} (log: {run_dir / 'child.log'})", file=sys.stderr)
        attempted, failed = attempted + 1, failed + 1
        outcome["metrics"] = {m: None for m in names}
        outcome["error_rate"] = failed / attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.update(attempted=attempted, failed=failed, correct=failed == 0)
    (run_dir / "outcome.json").write_text(json.dumps(outcome, indent=1), encoding="utf-8")
    return outcome


def print_outcome(o: dict, units: dict[str, str]) -> None:
    print(f"== {o['workload']}  seed {o['seed']}  trace {o['trace']}  size {o['size']}  "
          f"({o['run_dir']})")
    if "env" in o:
        e = o["env"]
        print(f"env python {e['python']}, numpy {e['numpy']}, blas {e['blas']}, "
              f"OPENBLAS_NUM_THREADS {e['openblas_threads']}, nproc {e['nproc']}, "
              f"memory {e['mem_total_mb']} MB")
    for m, v in o["metrics"].items():
        print(f"{o['workload']:<11} {m:<36} {v if v is None else f'{v:.6g}'} {units[m]}")
    if not o["trace"]:
        for alias, v in o.get("report", {}).items():
            if alias in o["metrics"]:
                continue
            unit = REPORT_UNITS.get(alias) or units[ALIASES[o["workload"]][alias]]
            print(f"{o['workload']:<11} {alias:<36} {v:.6g} {unit}")
    print(f"{o['workload']:<11} {'error_rate':<36} {o['error_rate']:.6g} 1 "
          f"({o['failed']} failed of {o['attempted']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "frnet" / "__init__.py").is_file():
        print(f"no frnet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = [run_workload(n, args.seed, seconds, args.trace, args.size, bench) for n in names]
    for o in outcomes:
        print_outcome(o, units)
    if len(outcomes) == 1:
        metrics = {m: {"value": v, "unit": units[m]} for m, v in outcomes[0]["metrics"].items()}
    else:
        metrics = {f"{o['workload']}.{m}": {"value": v, "unit": units[m]}
                   for o in outcomes for m, v in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
