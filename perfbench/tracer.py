"""Span tracer for the traced benchmark run.

Every span is recorded from this directory by wrapping names that the
program's modules expose (module functions, `CompiledModel` and `Graph`
methods, the registered operator kernels); nothing under `src/` changes.
Spans stay in memory as parallel lists and are written once, when the run
ends. A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.

Layer names follow the program's modules (`optim`, `autodiff`, `nnops`,
`models`, `pipeline`, `checkpoint`, `data`, `metrics`). Spans whose name
starts with `run.` are the benchmark's own regions (set-up, passes) and are
not layers.
"""

import functools
import os
import sys
import time
from collections import defaultdict

MB = float(1 << 20)

KERNEL_FAMILIES = ("conv2d_1x1", "conv2d_kxk", "maxpool2d", "concat", "matmul", "l2_penalty", "other")


def _kernel_family(kind, args):
    if kind == "conv2d":
        return "conv2d_1x1" if tuple(args[1].shape[:2]) == (1, 1) else "conv2d_kxk"
    if kind in ("maxpool2d", "concat", "matmul", "l2_penalty"):
        return kind
    return "other"


def _is_identity_pool(attrs):
    return attrs.get("kernel") == 1 and attrs.get("stride") == 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.outermost.append(all(self.names[i] != name for i in stack))
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span.

        `name` is a string or a callable of the call's positional arguments
        returning the span name (None records no span). `count(counts, args,
        result)` runs after the call to add work counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            idx = tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return traced

    # -- results -----------------------------------------------------------

    def _self_times(self) -> list[float]:
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(n)]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: total (outermost spans), self time and call count."""
        table: dict[str, dict[str, float]] = {}
        self_t = self._self_times()
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["self_s"] += self_t[i]
            if self.outermost[i]:
                row["s"] += self.ends[i] - self.starts[i]
                row["calls"] += 1
        return table

    def region_balance(self, region: str) -> tuple[float, float]:
        """(sum of self times of every span under `region` spans, their duration).

        The first never exceeds the second when spans nest properly.
        """
        self_t = self._self_times()
        root_of = [-1] * len(self.names)
        duration = 0.0
        covered = 0.0
        for i, name in enumerate(self.names):
            p = self.parents[i]
            root_of[i] = i if p < 0 else root_of[p]
            if self.names[root_of[i]] != region:
                continue
            if p < 0:
                duration += self.ends[i] - self.starts[i]
            else:
                covered += self_t[i]
        return covered, duration

    def write(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (i, self.parents[i], name, self.starts[i] - t0, self.ends[i] - t0))


# ---------------------------------------------------------------------------
# instrumentation


def _replace_everywhere(original, replacement) -> int:
    """Point every frnet module attribute bound to `original` at `replacement`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "frnet" or mod_name.startswith("frnet.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _returned_mb(key):
    def count(counts, args, out):
        counts[key] += sum(t.data.nbytes for t in out.values()) / MB
    return count


def _adam_elements(counts, args, out):
    counts["optim.adam_step.elements"] += sum(p.data.size for p in args[0].values())


def _file_mb(key, arg_index):
    def count(counts, args, out):
        counts[key] += os.path.getsize(args[arg_index]) / MB
    return count


def instrument(tracer: Tracer) -> None:
    """Wrap the program's layers so that each call records a span."""
    from frnet import autodiff, checkpoint, data, metrics, models, optim, pipeline

    def patch(name, fn, count=None):
        if _replace_everywhere(fn, tracer.wrap(name, fn, count)) == 0:
            raise RuntimeError(f"no frnet module exposes {fn.__qualname__}")

    def patch_method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))

    # kernels: one span per forward or backward call of a registered op
    def kernel_fwd(kind, fwd):
        def name(args):
            return f"nnops.{_kernel_family(kind, args[0])}.fwd"

        def count(counts, args, out):
            if kind == "maxpool2d" and _is_identity_pool(args[1]):
                counts["nnops.maxpool2d_identity.calls"] += 1
        return tracer.wrap(name, fwd, count)

    def kernel_bwd(kind, bwd):
        return tracer.wrap(lambda args: f"nnops.{_kernel_family(kind, args[1])}.bwd", bwd)

    for kind, op in list(autodiff._REGISTRY.items()):
        autodiff._REGISTRY[kind] = autodiff.OpDef(kernel_fwd(kind, op.forward),
                                                  kernel_bwd(kind, op.backward))

    patch_method(autodiff.Graph, "forward", "autodiff.forward",
                 _returned_mb("autodiff.forward.returned_mb"))
    patch_method(autodiff.Graph, "backward", "autodiff.backward",
                 _returned_mb("autodiff.backward.returned_mb"))

    patch("optim.adam_step", optim.adam_step, _adam_elements)

    patch("models.compile_model", models.compile_model)
    patch_method(models.CompiledModel, "train_step_grads", "models.train_step_grads")
    patch_method(models.CompiledModel, "set_params", "models.set_params")
    patch_method(models.CompiledModel, "predict", "models.predict")
    # extract_features runs the model through `tap` one fixed-size block at a time
    patch_method(models.CompiledModel, "tap", "models.extract_features")

    patch("pipeline.train_ae", pipeline._train_autoencoder)
    patch("pipeline.train_clf", pipeline._train_classifier)
    patch("pipeline.extract", pipeline.extract_features)
    # batched prediction is the scoring stage, except inside per-epoch evaluation
    patch(lambda args: None if tracer.inside("pipeline.epoch_eval") else "pipeline.score",
          pipeline._predict_batched)

    def eval_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("pipeline.epoch_eval", factory(*args, **kwargs))
        if _replace_everywhere(factory, make) == 0:
            raise RuntimeError(f"no frnet module exposes {factory.__qualname__}")

    eval_factory(pipeline._recon_accuracy_fn)
    eval_factory(pipeline._threshold_accuracy_fn)

    patch("checkpoint.save", checkpoint.save, _file_mb("checkpoint.save.mb", 1))
    patch("checkpoint.load", checkpoint.load, _file_mb("checkpoint.load.mb", 0))

    patch("data.load_dataset", data.load_dataset)
    patch("data.scaling", data.fit_scaling)
    patch("data.scaling", data.apply_scaling)
    patch("data.images", data.as_images)
    patch("data.images", data.as_square_images)
    patch("data.make_folds", data.make_folds)

    for fn in (metrics.evaluate_scores, metrics.roc_points, metrics.pr_points, metrics.aggregate):
        patch("metrics.evaluate", fn)


# spans reported by their inclusive time as `<name>.s`
_TIMED = (
    "optim.adam_step",
    "models.compile_model",
    "models.train_step_grads",
    "models.set_params",
    "models.extract_features",
    "models.predict",
    "pipeline.train_ae",
    "pipeline.train_clf",
    "pipeline.epoch_eval",
    "pipeline.extract",
    "pipeline.score",
    "checkpoint.save",
    "checkpoint.load",
    "data.load_dataset",
    "data.scaling",
    "data.images",
    "data.make_folds",
    "metrics.evaluate",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten the span table and counters into per-layer metric values.

    Layers the workload never reaches report 0.
    """
    table = tracer.layer_table()

    def get(name, key):
        return table.get(name, {}).get(key, 0.0)

    out: dict[str, float] = {}
    for name in _TIMED:
        out[f"{name}.s"] = get(name, "s")
    out["optim.adam_step.calls"] = get("optim.adam_step", "calls")
    out["optim.adam_step.elements"] = tracer.counts["optim.adam_step.elements"]
    for layer in ("forward", "backward"):
        span = f"autodiff.{layer}"
        out[f"{span}.self_s"] = get(span, "self_s")
        out[f"{span}.calls"] = get(span, "calls")
        out[f"{span}.returned_mb"] = tracer.counts[f"{span}.returned_mb"]
    for fam in KERNEL_FAMILIES:
        out[f"nnops.{fam}.fwd_s"] = get(f"nnops.{fam}.fwd", "s")
        out[f"nnops.{fam}.bwd_s"] = get(f"nnops.{fam}.bwd", "s")
        out[f"nnops.{fam}.calls"] = get(f"nnops.{fam}.fwd", "calls")
    out["nnops.maxpool2d_identity.calls"] = tracer.counts["nnops.maxpool2d_identity.calls"]
    out["checkpoint.save.mb"] = tracer.counts["checkpoint.save.mb"]
    out["checkpoint.load.mb"] = tracer.counts["checkpoint.load.mb"]
    return out
