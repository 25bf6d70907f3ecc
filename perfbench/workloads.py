"""One benchmark workload, run in its own process by `run.py`.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|tiny --setup-reps R --out DIR --work DIR
        [--phase prepare]

The process makes the workload's inputs from the seed (untimed), sets up,
then runs passes of fixed work until the next pass would end after
`--seconds` (always at least one). Each workload is a closed loop: one
caller, and every call starts after the previous one returned. It writes
`result.json`, and with `--trace 1` also `trace.tsv`, to `--out`; inputs
and the program's own outputs go to `--work`.

Workloads (why each exists is recorded in BENCHMARK.json):

* cv_sanity  - `cmd_cv_run` on `synth_blobs` at the acceptance-sanity widths
  (16x16 images, autoencoder 256/128, classifier 64/32, batch 32, 5 + 30
  epochs, per-fold autoencoder), 2 folds x 1 repeat. A step is one training
  step; a pass is one cv-run.
* train_full - paper-width FRnet-1 (1476 features as 211x7, 4096/2048) then
  paper-width FRnet-2 (4096 uniform features, balanced labels, 2048/512),
  at batch 64, each step doing train_step_grads -> adam_step -> set_params.
  A pass trains both models for a fixed number of steps; set-up (model
  compile and Adam state) is timed apart from the pass.
* score_full - `cmd_rank_candidates` with random-init paper-width
  checkpoints over delimited 1476-wide files of label-0 candidate pairs. The
  checkpoints and files are written by a separate `--phase prepare` process.
  A step is one rank call (checkpoint load and parse included); a pass
  ranks every candidate file once.
"""

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback

import numpy as np

from frnet import checkpoint, models, optim, pipeline, rng, synth
from frnet.data import apply_scaling, as_images, as_square_images, fit_scaling

from tracer import Tracer, instrument, layer_metrics

SANITY = dict(
    orientation=(16, 16),
    ae_hidden=(256, 128),
    clf_hidden=(64, 32),
    epochs_ae=5,
    epochs_clf=30,
    batch_size=32,
    repeats=1,
    seed=0,
)
PAPER = dict(feature_count=1476, orientation=(211, 7), ae_hidden=(4096, 2048), clf_hidden=(2048, 512))
SMALL = dict(feature_count=255, orientation=(16, 16), ae_hidden=(256, 128), clf_hidden=(64, 32))

# `tiny` exists for the self-check: the same code paths at desk sizes.
SIZES = {
    "full": {
        "cv_sanity": dict(n=500, width=255, folds=2, cfg=SANITY),
        "train_full": dict(PAPER, batch=64, steps_ae=4, steps_clf=4),
        "score_full": dict(PAPER, files=3, rows=96, k=20, fit_rows=256),
    },
    "tiny": {
        "cv_sanity": dict(n=120, width=255, folds=2, cfg=dict(SANITY, epochs_ae=1, epochs_clf=25)),
        "train_full": dict(SMALL, batch=8, steps_ae=2, steps_clf=2),
        "score_full": dict(SMALL, files=2, rows=40, k=5, fit_rows=64),
    },
}

AUROC_BOUND = 0.95  # acceptance check C8
LR = 0.001
_AE_INIT, _CLF_INIT = rng.derive_key(0, rng.INIT, 1), rng.derive_key(0, rng.INIT, 2)


class StepClock:
    """Times training steps from the outside: a step starts when
    `train_step_grads` is called and ends when the following `set_params`
    returns, which is how the pipeline's training loop sequences them."""

    def __init__(self):
        self.seconds: list[float] = []
        self.losses: list[float] = []
        self.rows = 0
        self._pending = None

    def install(self) -> None:
        cls = models.CompiledModel
        train_step_grads, set_params = cls.train_step_grads, cls.set_params
        clock = self

        def timed_train_step_grads(model, x, y, dropout_seed):
            t0 = time.perf_counter()
            out = train_step_grads(model, x, y, dropout_seed)
            clock._pending = (t0, len(x), out[0])
            return out

        def timed_set_params(model, params):
            set_params(model, params)
            if clock._pending is not None:
                t0, rows, loss = clock._pending
                clock.seconds.append(time.perf_counter() - t0)
                clock.rows += rows
                clock.losses.append(loss)
                clock._pending = None

        cls.train_step_grads = timed_train_step_grads
        cls.set_params = timed_set_params


class Run:
    """Timings, outcomes and (optionally) trace regions of one workload run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.setup: dict[str, list[float]] = {}
        self.pass_s: list[float] = []
        self.step_s: list[float] = []
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, float] = {}

    def timed(self, region: str, fn, *args):
        """Call fn inside a `run.<region>` trace region; returns (seconds, result)."""
        idx = self.tracer.enter(f"run.{region}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            if idx is not None:
                self.tracer.exit(idx)
        return dt, out

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _env() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 20)),
    }


def _passes(run: Run, seconds: float, one_pass) -> None:
    """Run passes until the next one would end after `seconds` (at least one).

    A pass whose work raised stops the loop; its failure is already counted.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if one_pass(len(run.pass_s)) is False:
            return
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


# ---------------------------------------------------------------------------
# cv_sanity


def cv_sanity(p: dict, seed: int, seconds: float, work: str, run: Run, clock: StepClock, reps: int):
    blobs = synth.synth_blobs(n=p["n"], width=p["width"], seed=seed)
    aurocs = []

    def one_pass(i):
        out_dir = os.path.join(work, f"cv{i}")
        cfg = pipeline.RunConfig(out_dir=out_dir, folds=p["folds"], **p["cfg"])
        first_step = len(clock.seconds)
        try:
            dt, (report, report_dict) = run.timed("pass", pipeline.cmd_cv_run, cfg, blobs)
        except Exception:
            traceback.print_exc()
            run.outcome(False, "cmd_cv_run raised")
            return False
        auroc = report.means["auROC"]
        aurocs.append(auroc)
        listed = report_dict["curve_files"] + report_dict["checkpoint_files"]
        missing = [f for f in listed if not os.path.isfile(os.path.join(out_dir, f))]
        run.outcome(auroc >= AUROC_BOUND and bool(listed) and not missing,
                    f"cv mean auROC {auroc:.4f} (bound {AUROC_BOUND}), missing files {missing}")
        run.pass_s.append(dt)
        run.step_s.extend(clock.seconds[first_step:])

    _passes(run, seconds, one_pass)
    run.rows = clock.rows
    run.checks["cv_mean_auroc"] = statistics.median(aurocs) if aurocs else float("nan")


# ---------------------------------------------------------------------------
# train_full


def train_full(p: dict, seed: int, seconds: float, work: str, run: Run, clock: StepClock, reps: int):
    batch = p["batch"]
    ae = synth.synth_rank3(n=p["steps_ae"] * batch, width=p["feature_count"], seed=seed)
    scaled = apply_scaling(ae.features, fit_scaling(ae.features))
    x1, y1 = as_images(scaled, p["orientation"]), scaled
    rep = synth.synth_random(n=p["steps_clf"] * batch, width=p["ae_hidden"][0], seed=seed)
    x2 = as_square_images(rep.features)
    y2 = rep.labels.astype(np.float32).reshape(-1, 1)
    spec1 = models.build_frnet1(feature_count=p["feature_count"], orientation=p["orientation"],
                                hidden=p["ae_hidden"])
    spec2 = models.build_frnet2(feature_count=p["ae_hidden"][0], hidden=p["clf_hidden"])
    stages = (("frnet1", spec1, _AE_INIT, x1, y1, p["steps_ae"]),
              ("frnet2", spec2, _CLF_INIT, x2, y2, p["steps_clf"]))

    def set_up(spec, init_seed):
        model = models.compile_model(spec, init_seed=init_seed)
        return model, optim.AdamState.init(model.params(), lr=LR)

    def train(stage, model, state, x, y, steps):
        params = model.params()
        for b in range(steps):
            rows = slice(b * batch, (b + 1) * batch)
            dropout_seed = rng.derive_key(0, rng.DROPOUT, stage, b)
            _, _, grads = model.train_step_grads(x[rows], y[rows], dropout_seed)
            params = optim.adam_step(params, grads, state)
            model.set_params(params)

    # extra set-ups so that set-up time is a median; the last one per model
    # is the one each pass trains
    for _ in range(reps - 1):
        for name, spec, init_seed, *_ in stages:
            dt, objs = run.timed("setup", set_up, spec, init_seed)
            run.setup.setdefault(name, []).append(dt)
            del objs
            gc.collect()

    final_losses = []

    def one_pass(i):
        wall = 0.0
        final_losses.clear()
        for stage, (name, spec, init_seed, x, y, steps) in enumerate(stages):
            dt, (model, state) = run.timed("setup", set_up, spec, init_seed)
            run.setup.setdefault(name, []).append(dt)
            first_step = len(clock.seconds)
            try:
                dt, _ = run.timed("pass", train, stage, model, state, x, y, steps)
            except Exception:
                traceback.print_exc()
                run.outcome(False, f"{name} training raised")
                return False
            finally:
                del model, state
                gc.collect()
            wall += dt
            losses = clock.losses[first_step:]
            for b, loss in enumerate(losses):
                run.outcome(math.isfinite(loss), f"{name} step {b} loss {loss}")
            final_losses.append(losses[-1])
            run.step_s.extend(clock.seconds[first_step:])
        run.pass_s.append(wall)

    _passes(run, seconds, one_pass)
    run.rows = clock.rows
    run.checks["final_loss"] = sum(final_losses)


# ---------------------------------------------------------------------------
# score_full


def _candidate_path(work: str, f: int) -> str:
    return os.path.join(work, f"candidates_{f}.tsv")


def prepare_score_full(p: dict, seed: int, work: str) -> None:
    """Write random-init checkpoints and the candidate files (input generation)."""
    width = p["feature_count"]
    fit = synth.synth_rank3(n=p["fit_rows"], width=width, seed=seed)
    record = fit_scaling(fit.features)
    specs = (
        ("ae.ckpt", models.build_frnet1(feature_count=width, orientation=p["orientation"],
                                        hidden=p["ae_hidden"]), _AE_INIT, (record.mins, record.maxs)),
        ("clf.ckpt", models.build_frnet2(feature_count=p["ae_hidden"][0], hidden=p["clf_hidden"]),
         _CLF_INIT, None),
    )
    for fname, spec, init_seed, scaling in specs:
        model = models.compile_model(spec, init_seed=init_seed)
        state = checkpoint.ModelState(
            spec_dict=models.spec_to_dict(spec),
            params={name: t.data for name, t in model.params().items()},
            scaling=scaling,
        )
        checkpoint.save(state, os.path.join(work, fname))
        del model, state
        gc.collect()
    for f in range(p["files"]):
        d = synth.synth_rank3(n=p["rows"], width=width, seed=rng.derive_key(seed, rng.SYNTH, f))
        with open(_candidate_path(work, f), "w", encoding="utf-8", newline="\n") as fh:
            for i, row in enumerate(d.features):
                # fixed-width values, so that every seed's files have the same byte length
                fh.write(f"d{f}_{i}\tt{f}_{i}\t0\t" + "\t".join("%.6f" % v for v in row) + "\n")


def score_full(p: dict, seed: int, seconds: float, work: str, run: Run, clock: StepClock, reps: int):
    ae_ckpt, clf_ckpt = os.path.join(work, "ae.ckpt"), os.path.join(work, "clf.ckpt")
    k = p["k"]

    def rank(path):
        cfg = pipeline.RunConfig(dataset_path=path)
        return pipeline.cmd_rank_candidates(cfg, ae_ckpt, clf_ckpt, k)

    def one_pass(i):
        wall = 0.0
        for f in range(p["files"]):
            try:
                dt, rows = run.timed("pass", rank, _candidate_path(work, f))
            except Exception:
                traceback.print_exc()
                run.outcome(False, f"rank call on file {f} raised")
                return False
            wall += dt
            run.step_s.append(dt)
            run.rows += p["rows"]
            scores = [s for _, _, s in rows]
            ok = (
                len(rows) == k
                and all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores)
                and all(a >= b for a, b in zip(scores, scores[1:]))
                and all(drug.startswith(f"d{f}_") for drug, _, _ in rows)
            )
            run.outcome(ok, f"rank output on file {f}: {rows[:3]}...")
        run.pass_s.append(wall)

    _passes(run, seconds, one_pass)


WORKLOADS = {"cv_sanity": cv_sanity, "train_full": train_full, "score_full": score_full}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-reps", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--phase", choices=("prepare", "measure"), default="measure")
    args = ap.parse_args(argv)
    p = SIZES[args.size][args.workload]
    work = args.work
    if args.phase == "prepare":
        if args.workload == "score_full":
            prepare_score_full(p, args.seed, work)
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        instrument(tracer)
    clock = StepClock()
    clock.install()
    run = Run(tracer)
    WORKLOADS[args.workload](p, args.seed, args.seconds, work, run, clock, args.setup_reps)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "env": _env(),
        "setup_s": sum(statistics.median(v) for v in run.setup.values()),
        "setup_samples": run.setup,
        "pass_s": run.pass_s,
        "step_s": run.step_s,
        "rows": run.rows,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["balance"] = {r: tracer.region_balance(f"run.{r}") for r in ("setup", "pass")}
        tracer.write(os.path.join(args.out, "trace.tsv"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
