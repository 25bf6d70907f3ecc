"""Experiment orchestration: run configs, training loops, and the CV driver.

The flow mirrors the two-stage design: scale features to [0,1], train the
autoencoder on padded feature images, read its 4096-wide dense activations
back out as the learned representation, train the classifier on those, and
score held-out pairs. `cmd_cv_run` wraps that in shuffled k-fold
cross-validation with repeats; everything downstream of the master seed is
derived through tagged generator streams, so fold assignment, parameter
init, batch order and dropout masks are independent of each other and
reproducible run to run.

Leakage stance: scaling records and both networks are fit on training
folds only. `global_ae=True` switches to the fidelity protocol that fits
scaling and the autoencoder once on the full dataset before
cross-validating the classifier; reports name the mode used.
"""

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import checkpoint
from .data import (
    DELIMITED,
    Dataset,
    ScalingRecord,
    apply_scaling,
    as_images,
    as_square_images,
    atomic_write,
    dataset_stats,
    fit_scaling,
    load_dataset,
    make_folds,
    read_feature_file,
    subset,
    write_feature_file,
    write_table,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FrnetError,
    MissingArtifactError,
    PipelineError,
)
from .metrics import (
    EvalReport,
    ScoredLabels,
    aggregate,
    evaluate_scores,
    pr_points,
    roc_points,
)
from .models import (
    CompiledModel,
    build_frnet1,
    build_frnet2,
    compile_model,
    eval_in_blocks,
    extract_features,
    spec_from_dict,
    spec_to_dict,
)
from .optim import AdamState, adam_step
from .rng import DROPOUT, FOLDS, SHUFFLE, derive_key, stream
from .tensor import Tensor

ENV_OUT_DIR = "FRNET_OUT_DIR"

# seed-path stage tags (never reuse across purposes)
_STAGE_AE = 1
_STAGE_CLF = 2
_STAGE_GLOBAL_AE = 3

# A batch loss above this multiple of its run's first batch loss means the
# run has diverged. Across the acceptance runs (C7 and the five C8 cv-runs,
# 41 training runs) no batch loss went above 1.004 times the first one.
DIVERGENCE_FACTOR = 1000.0


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str = ""
    dataset_format: str = DELIMITED
    dataset_name: str = "custom"
    orientation: tuple[int, int] = (211, 7)
    seed: int = 0
    batch_size: int = 64
    epochs_ae: int = 50
    epochs_clf: int = 50
    lr: float = 0.001
    keep_prob: float = 0.5
    l2_scale: float = 0.001
    folds: int = 5
    repeats: int = 10
    bottleneck_channels: int = 16
    stratified: bool = True
    global_ae: bool = False
    ae_hidden: tuple[int, int] = (4096, 2048)
    clf_hidden: tuple[int, int] = (2048, 512)
    threshold: float = 0.5
    out_dir: str = "runs"

    def validate(self) -> "RunConfig":
        checks = [
            (self.seed >= 0, "seed must be >= 0"),
            (self.batch_size >= 1, "batch-size must be >= 1"),
            (self.epochs_ae >= 0, "epochs-ae must be >= 0"),
            (self.epochs_clf >= 0, "epochs-clf must be >= 0"),
            (self.lr > 0, "lr must be positive"),
            (math.isfinite(self.lr), "lr must be finite"),
            (0 < self.keep_prob <= 1, "keep-prob must be in (0, 1]"),
            (self.l2_scale >= 0, "l2-scale must be >= 0"),
            (math.isfinite(self.l2_scale), "l2-scale must be finite"),
            (self.folds >= 2, "folds must be >= 2"),
            (self.repeats >= 1, "repeats must be >= 1"),
            (self.bottleneck_channels >= 1, "bottleneck-channels must be >= 1"),
            (0 < self.threshold < 1, "threshold must be in (0, 1)"),
            (len(self.orientation) == 2 and min(self.orientation) >= 1,
             "orientation must be two positive extents"),
            (len(self.ae_hidden) == 2 and min(self.ae_hidden) >= 1,
             "ae-hidden must be two positive widths"),
            (len(self.clf_hidden) == 2 and min(self.clf_hidden) >= 1,
             "clf-hidden must be two positive widths"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        return self

    def require_square_representation(self) -> int:
        side = math.isqrt(self.ae_hidden[0])
        if side * side != self.ae_hidden[0]:
            raise ConfigError(
                f"ae-hidden {self.ae_hidden[0]} is not a perfect square; "
                "the classifier views the representation as a square image"
            )
        return side

    def require_orientation(self, feature_count: int) -> None:
        h, w = self.orientation
        if h * w != feature_count + 1:
            raise ConfigError(f"orientation {h}x{w} cannot hold {feature_count} features plus one pad")


CONFIG_KEYS = {f.name: f.name.replace("_", "-") for f in fields(RunConfig)}


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for attr, key in CONFIG_KEYS.items():
        v = getattr(cfg, attr)
        out[key] = list(v) if isinstance(v, tuple) else v
    return out


def config_digest(cfg: RunConfig) -> str:
    """SHA-256 of every config field except `out_dir`, so a run moved or
    written elsewhere keeps its digest (and its checkpoint bytes)."""
    values = config_to_dict(cfg)
    del values[CONFIG_KEYS["out_dir"]]
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_pair(text: str, what: str) -> tuple[int, int]:
    """'211x7' or '4096,2048' -> (211, 7); both separators accepted."""
    return _int_pair(text.split("x" if "x" in text else ","), what, text)


def _int_pair(parts, what: str, raw) -> tuple[int, int]:
    """Two entries, each the text of an integer, as ints (so 1.5 is refused, not truncated)."""
    try:
        a, b = (int(str(p)) for p in parts)
    except ValueError:
        raise ConfigError(f"{what}: expected two integers like '211x7', got {raw!r}") from None
    return a, b


def config_from_dict(values: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from kebab-case keys, starting from `base`."""
    cfg = base if base is not None else RunConfig()
    attr_by_key = {key: attr for attr, key in CONFIG_KEYS.items()}
    updates = {}
    for key, raw in values.items():
        if key not in attr_by_key:
            raise ConfigError(f"unknown config key {key!r}")
        attr = attr_by_key[key]
        current = getattr(cfg, attr)
        if isinstance(current, bool):
            if isinstance(raw, bool):
                updates[attr] = raw
            elif str(raw).lower() in ("true", "yes", "1"):
                updates[attr] = True
            elif str(raw).lower() in ("false", "no", "0"):
                updates[attr] = False
            else:
                raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        elif isinstance(current, int):
            try:
                updates[attr] = int(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
        elif isinstance(current, float):
            try:
                updates[attr] = float(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        elif isinstance(current, tuple):
            if isinstance(raw, (list, tuple)):
                updates[attr] = _int_pair(raw, key, raw)
            else:
                updates[attr] = parse_pair(str(raw), key)
        else:
            updates[attr] = str(raw)
    return replace(cfg, **updates)


class TrainLog:
    """Per-epoch (index, loss, accuracy, seconds) records."""

    def __init__(self):
        self.entries: list[dict] = []

    def add(self, epoch: int, loss: float, accuracy: float, seconds: float) -> None:
        if self.entries and epoch <= self.entries[-1]["epoch"]:
            raise PipelineError(f"epoch {epoch} logged after {self.entries[-1]['epoch']}")
        self.entries.append(
            {"epoch": epoch, "loss": loss, "accuracy": accuracy, "seconds": seconds}
        )

    def write(self, path: str) -> None:
        write_table(path, ("epoch", "loss", "accuracy", "seconds"), (
            ("%d" % e["epoch"], "%.10g" % e["loss"], "%.10g" % e["accuracy"], "%.3f" % e["seconds"])
            for e in self.entries
        ))


def _predict_batched(model: CompiledModel, x: np.ndarray) -> np.ndarray:
    return eval_in_blocks(model.predict, x)


@np.errstate(all="ignore")
def _train(
    model: CompiledModel,
    x: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    master_seed: int,
    path: tuple[int, ...],
    accuracy_fn,
) -> TrainLog:
    """Mini-batch Adam over (x, y); deterministic given seed and path tags.

    A step that fails, yields a non-finite loss or a loss above
    DIVERGENCE_FACTOR times the run's first batch loss raises PipelineError
    naming the model kind, epoch and batch, and so do parameters left
    non-finite by the last update, so a diverging run writes nothing.
    numpy's floating-point warnings are silenced: that error reports a
    diverging run. The model's gradient buffers are released on return.

    `adam_step` updates the model's parameter tensors in place, so
    `set_params` hands the model the tensors it already holds; the call
    stays as the end of each step.
    """
    kind = model.spec.model_kind
    n = len(x)
    params = model.params()
    state = AdamState.init(params, lr=lr)
    log = TrainLog()
    first_loss = None
    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = stream(master_seed, SHUFFLE, *path, epoch).permutation(n)
        batch_losses = []
        for b, start in enumerate(range(0, n, batch_size)):
            idx = order[start : start + batch_size]
            dropout_seed = derive_key(master_seed, DROPOUT, *path, epoch, b)
            try:
                total, _, grads = model.train_step_grads(x[idx], y[idx], dropout_seed)
            except FrnetError as e:
                raise PipelineError(f"{kind} epoch {epoch} batch {b}: {e}") from e
            if not math.isfinite(total):
                raise PipelineError(f"{kind} epoch {epoch} batch {b}: loss is {total}")
            if first_loss is None:
                first_loss = total
            elif total > DIVERGENCE_FACTOR * first_loss:
                raise PipelineError(
                    f"{kind} epoch {epoch} batch {b}: loss {total:.6g} is over {DIVERGENCE_FACTOR:g} "
                    f"times the first batch loss {first_loss:.6g}; training diverged"
                )
            params = adam_step(params, grads, state)
            model.set_params(params)
            batch_losses.append(total)
        loss = float(np.mean(np.array(batch_losses, dtype=np.float64)))
        log.add(epoch, loss, accuracy_fn(model), time.perf_counter() - t0)
    # min and max propagate NaN and reach +-inf, with no full-size temporary
    if epochs and not all(np.isfinite([p.data.min(), p.data.max()]).all() for p in params.values()):
        raise PipelineError(f"{kind} epoch {epochs - 1}: parameters are not finite after the last update")
    model.graph.release_grad_buffers()
    return log


def _accuracy_fn(x: np.ndarray, y: np.ndarray, threshold: float):
    """Per-epoch accuracy on the first 256 rows of (x, y).

    The share of entries where prediction >= threshold agrees with
    target >= 0.5, the target shaped like the prediction.
    """
    xs, ys = x[:256], y[:256]

    def fn(model: CompiledModel) -> float:
        pred = _predict_batched(model, xs)
        return float(np.mean((pred >= threshold) == (np.reshape(ys, pred.shape) >= 0.5)))

    return fn


def _recon_accuracy_fn(x: np.ndarray, y: np.ndarray):
    return _accuracy_fn(x, y, 0.5)


def _threshold_accuracy_fn(x: np.ndarray, y: np.ndarray, threshold: float):
    return _accuracy_fn(x, y, threshold)


def _fit(cfg: RunConfig, spec, x: np.ndarray, y: np.ndarray, epochs: int, path: tuple[int, ...],
         accuracy_fn) -> tuple[CompiledModel, TrainLog]:
    """Compile `spec` with the init seed of `path` and train it on (x, y)."""
    model = compile_model(spec, init_seed=derive_key(cfg.seed, *path))
    log = _train(model, x, y, epochs=epochs, batch_size=cfg.batch_size, lr=cfg.lr,
                 master_seed=cfg.seed, path=path, accuracy_fn=accuracy_fn)
    return model, log


def _train_autoencoder(
    cfg: RunConfig, features: np.ndarray, *, path: tuple[int, ...]
) -> tuple[CompiledModel, ScalingRecord, TrainLog]:
    """Fit the scaling record on raw rows, then train the autoencoder on the scaled rows."""
    record = fit_scaling(features)
    scaled = apply_scaling(features, record)
    spec = build_frnet1(feature_count=scaled.shape[1], orientation=cfg.orientation, hidden=cfg.ae_hidden,
                        bottleneck_channels=cfg.bottleneck_channels, keep_prob=cfg.keep_prob,
                        l2_scale=cfg.l2_scale)
    x = as_images(scaled, cfg.orientation)
    model, log = _fit(cfg, spec, x, scaled, cfg.epochs_ae, path, _recon_accuracy_fn(x, scaled))
    return model, record, log


def _train_classifier(
    cfg: RunConfig, rep: np.ndarray, labels: np.ndarray, *, path: tuple[int, ...]
) -> tuple[CompiledModel, TrainLog]:
    spec = build_frnet2(feature_count=rep.shape[1], hidden=cfg.clf_hidden,
                        bottleneck_channels=cfg.bottleneck_channels, keep_prob=cfg.keep_prob,
                        l2_scale=cfg.l2_scale)
    x = as_square_images(rep)
    y = labels.astype(np.float32).reshape(-1, 1)
    return _fit(cfg, spec, x, y, cfg.epochs_clf, path, _threshold_accuracy_fn(x, y, cfg.threshold))


def _save(cfg: RunConfig, model: CompiledModel, record: ScalingRecord | None, log: TrainLog,
          ckpt_name: str, log_name: str) -> str:
    """Write a stage's training log, then its checkpoint, at names under out-dir; returns `ckpt_name`."""
    log.write(os.path.join(cfg.out_dir, log_name))
    params = {name: t.data for name, t in model.params().items()}
    scaling = (record.mins, record.maxs) if record is not None else None
    state = checkpoint.ModelState(spec_dict=spec_to_dict(model.spec), params=params, seed=cfg.seed,
                                  config_digest=config_digest(cfg), scaling=scaling)
    checkpoint.save(state, os.path.join(cfg.out_dir, ckpt_name))
    return ckpt_name


def _load_model(path: str, expected_kind: str) -> tuple[CompiledModel, ScalingRecord | None]:
    state = checkpoint.load(path)
    if state.spec_dict["model_kind"] != expected_kind:
        raise CheckpointError(
            f"{path}: holds a {state.spec_dict['model_kind']} model, expected {expected_kind}"
        )
    spec = spec_from_dict(state.spec_dict)
    model = compile_model(spec, init_seed=0, random_init=False)
    model.set_params({name: Tensor._wrap(arr) for name, arr in state.params.items()})
    record = ScalingRecord(*state.scaling) if state.scaling is not None else None
    return model, record


def _represent(
    ae: CompiledModel, record: ScalingRecord | None, features: np.ndarray, source: str
) -> np.ndarray:
    """The autoencoder representation of raw rows; `source` names the autoencoder in errors."""
    if record is None:
        raise CheckpointError(f"{source}: no scaling record; cannot reproduce inputs")
    h, w, _ = ae.shapes[ae.spec.input_layer.name]
    if features.shape[1] + 1 != h * w:
        raise CheckpointError(f"{source}: expects {h * w - 1} features, dataset has {features.shape[1]}")
    return extract_features(ae, as_images(apply_scaling(features, record), (h, w)))


def _resolve_dataset(cfg: RunConfig, dataset: Dataset | str | None) -> Dataset:
    """`dataset` itself, or the file it names (`cfg.dataset_path` when None or empty)."""
    if isinstance(dataset, Dataset):
        return dataset
    path = dataset or cfg.dataset_path
    if not path:
        raise ConfigError("no dataset: set dataset-path or pass one in")
    return load_dataset(path, format=cfg.dataset_format, name=cfg.dataset_name)


def _ensure_out_dir(cfg: RunConfig, *parts: str) -> str:
    path = os.path.join(cfg.out_dir, *parts)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out-dir: {e}") from None
    return path


def cmd_ingest(cfg: RunConfig, dataset: Dataset | None = None) -> dict:
    """Load and validate the dataset; returns its summary statistics."""
    cfg.validate()
    d = _resolve_dataset(cfg, dataset)
    stats = dataset_stats(d)
    stats["name"] = d.name
    stats["features"] = d.feature_count
    return stats


def cmd_train_ae(cfg: RunConfig, dataset: Dataset | None = None) -> dict:
    """Train the autoencoder on the full dataset; write checkpoint and log."""
    cfg.validate()
    d = _resolve_dataset(cfg, dataset)
    cfg.require_orientation(d.feature_count)
    out = _ensure_out_dir(cfg)
    model, record, log = _train_autoencoder(cfg, d.features, path=(_STAGE_GLOBAL_AE,))
    _save(cfg, model, record, log, "ae.ckpt", "ae_train_log.tsv")
    return {"checkpoint": os.path.join(out, "ae.ckpt"), "log": os.path.join(out, "ae_train_log.tsv"),
            "train_log": log}


def cmd_extract(cfg: RunConfig, ae_checkpoint: str, dataset: Dataset | None = None) -> str:
    """Run the dataset through a trained autoencoder; write the feature file."""
    cfg.validate()
    d = _resolve_dataset(cfg, dataset)
    if len(d) == 0:
        raise DataError("dataset has no rows; nothing to extract")
    out = _ensure_out_dir(cfg)
    ae, record = _load_model(ae_checkpoint, "frnet1")
    rep = _represent(ae, record, d.features, ae_checkpoint)
    path = os.path.join(out, "features.tsv")
    write_feature_file(path, Dataset(d.name, d.drug_ids, d.target_ids, rep, d.labels))
    return path


def cmd_train_clf(cfg: RunConfig, features_path: str) -> dict:
    """Train the classifier on an extracted-feature file; write checkpoint and log."""
    cfg.validate()
    d = read_feature_file(features_path)
    out = _ensure_out_dir(cfg)
    if math.isqrt(d.feature_count) ** 2 != d.feature_count:
        raise DataError(f"{features_path}: width {d.feature_count} is not a perfect square; "
                        "the classifier views each row as a square image")
    model, log = _train_classifier(cfg, d.features, d.labels, path=(_STAGE_CLF, 0, 0))
    _save(cfg, model, None, log, "clf.ckpt", "clf_train_log.tsv")
    return {"checkpoint": os.path.join(out, "clf.ckpt"), "log": os.path.join(out, "clf_train_log.tsv"),
            "train_log": log}


def cmd_cv_run(cfg: RunConfig, dataset: Dataset | None = None) -> tuple[EvalReport, dict]:
    """k-fold cross-validation with repeats over the full two-stage pipeline."""
    cfg.validate()
    cfg.require_square_representation()
    d = _resolve_dataset(cfg, dataset)
    cfg.require_orientation(d.feature_count)
    # every fold of every repeat is checked before any model trains
    plans = [make_folds(d, k=cfg.folds, seed=derive_key(cfg.seed, FOLDS, r), stratified=cfg.stratified)
             for r in range(cfg.repeats)]
    for r, plan in enumerate(plans):
        for f in range(cfg.folds):
            for side in (plan.train_indices(f), plan.test_indices(f)):
                if not 0 < d.labels[side].sum() < side.size:
                    raise PipelineError(f"repeat {r} fold {f}: a side is without positives or "
                                        "negatives; use stratified folds")
    for sub in ("models", "curves", "logs"):
        _ensure_out_dir(cfg, sub)

    global_ae = None
    ckpt_files: list[str] = []
    if cfg.global_ae:
        model, record, log = _train_autoencoder(cfg, d.features, path=(_STAGE_GLOBAL_AE,))
        ckpt_files.append(_save(cfg, model, record, log, *_stage_files("ae_global")))
        global_ae = (model, record)

    fold_metrics: list[dict] = []
    curve_files: list[str] = []
    for r, plan in enumerate(plans):
        for f in range(cfg.folds):
            try:
                fm, files = _run_fold(cfg, d, plan, r, f, global_ae=global_ae)
            except FrnetError as e:
                raise PipelineError(f"repeat {r} fold {f}: {e}") from e
            fold_metrics.append(fm)
            curve_files.extend(files["curves"])
            ckpt_files.extend(files["checkpoints"])

    report = aggregate(fold_metrics)
    report_dict = {
        "dataset": d.name,
        "pairs": len(d),
        "positives": int(d.positives),
        "mode": "global-ae" if cfg.global_ae else "per-fold-ae",
        "config": config_to_dict(cfg),
        "config_digest": config_digest(cfg),
        "fold_metrics": fold_metrics,
        "means": report.means,
        "sds": report.sds,
        "curve_files": curve_files,
        "checkpoint_files": ckpt_files,
    }
    with atomic_write(os.path.join(cfg.out_dir, "report.json")) as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report, report_dict


def _stage_files(stem: str) -> tuple[str, str]:
    """The run-relative checkpoint and training-log names of a cv-run stage."""
    return os.path.join("models", f"{stem}.ckpt"), os.path.join("logs", f"{stem}.tsv")


def _run_fold(
    cfg: RunConfig,
    d: Dataset,
    plan,
    r: int,
    f: int,
    *,
    global_ae: tuple[CompiledModel, ScalingRecord] | None,
) -> tuple[dict, dict]:
    """Train and score one fold; returns its metrics and the run-relative names of what it wrote."""
    train_idx = plan.train_indices(f)
    test_idx = plan.test_indices(f)
    train_labels = d.labels[train_idx]
    test_labels = d.labels[test_idx]
    files = {"curves": [], "checkpoints": []}
    if global_ae is not None:
        ae, record = global_ae
    else:
        ae, record, ae_log = _train_autoencoder(cfg, d.features[train_idx], path=(_STAGE_AE, r, f))
        files["checkpoints"].append(_save(cfg, ae, record, ae_log, *_stage_files(f"ae_r{r}_f{f}")))

    rep_train = _represent(ae, record, d.features[train_idx], "autoencoder")
    rep_test = _represent(ae, record, d.features[test_idx], "autoencoder")
    # a per-fold autoencoder is freed before the classifier trains; a global one is still held by the caller
    del ae

    clf, clf_log = _train_classifier(cfg, rep_train, train_labels, path=(_STAGE_CLF, r, f))
    files["checkpoints"].append(_save(cfg, clf, None, clf_log, *_stage_files(f"clf_r{r}_f{f}")))

    probs = _predict_batched(clf, as_square_images(rep_test))[:, 0]
    scored = ScoredLabels(probs.astype(np.float64), test_labels)
    fm = evaluate_scores(scored, cfg.threshold)
    fm["repeat"] = r
    fm["fold"] = f
    for kind, columns, points in (("roc", ("fpr", "tpr"), roc_points(scored)),
                                  ("pr", ("recall", "precision"), pr_points(scored))):
        rel = os.path.join("curves", f"{d.name}_r{r}_f{f}_{kind}.tsv")
        write_table(os.path.join(cfg.out_dir, rel), columns, (("%.10g" % x, "%.10g" % y) for x, y in points))
        files["curves"].append(rel)
    return fm, files


def cmd_rank_candidates(
    cfg: RunConfig,
    ae_checkpoint: str,
    clf_checkpoint: str,
    k: int,
    dataset: Dataset | None = None,
) -> list[tuple[str, str, float]]:
    """Top-k label-0 pairs by predicted interaction probability: `cmd_rank_files` over one dataset."""
    return cmd_rank_files(cfg, ae_checkpoint, clf_checkpoint, k, [dataset])[0]


def cmd_rank_files(
    cfg: RunConfig,
    ae_checkpoint: str,
    clf_checkpoint: str,
    k: int,
    datasets: list[Dataset | str | None],
) -> list[list[tuple[str, str, float]]]:
    """Per dataset, in order, its top-k label-0 pairs by predicted interaction probability.

    Each entry of `datasets` is a Dataset, or the path of one to load with
    cfg's format and name (None: `cfg.dataset_path`). Descending score;
    ties broken by (drug-id, target-id) lexicographically. A pair's score
    does not depend on the other rows or files ranked with it.

    Each checkpoint is read once per call, and one model is in memory at a
    time: the autoencoder represents every file's negatives and is freed
    before the classifier loads. Both checkpoint files are opened first, so
    a missing one fails before either is read.
    """
    cfg.validate()
    if k < 0:
        raise ConfigError("k must be >= 0")
    candidates = []
    for i, source in enumerate(datasets):
        d = _resolve_dataset(cfg, source)
        negatives = np.flatnonzero(d.labels == 0)
        if k > negatives.size:
            which = f"dataset {i + 1} of {len(datasets)}: " if len(datasets) > 1 else ""
            warnings.warn(
                f"{which}k={k} exceeds the {negatives.size} negative pairs; returning all of them",
                stacklevel=2,
            )
        candidates.append(subset(d, negatives))
    if k == 0 or not any(len(neg) for neg in candidates):
        return [[] for _ in candidates]
    for path in (ae_checkpoint, clf_checkpoint):
        _check_openable(path)
    ae, record = _load_model(ae_checkpoint, "frnet1")
    reps = [_represent(ae, record, neg.features, ae_checkpoint) for neg in candidates]
    del ae  # its parameters are its checkpoint's buffer, freed here
    clf, _ = _load_model(clf_checkpoint, "frnet2")
    ranked = []
    for neg, rep in zip(candidates, reps):
        probs = _predict_batched(clf, as_square_images(rep))[:, 0]
        rows = sorted(
            zip(neg.drug_ids, neg.target_ids, map(float, probs)),
            key=lambda row: (-row[2], row[0], row[1]),
        )
        ranked.append(rows[:k])
    return ranked


def _check_openable(path: str) -> None:
    try:
        with open(path, "rb"):
            pass
    except OSError as e:
        raise CheckpointError(f"{path}: {e}") from None


# the report.json keys that `cmd_report` reads
_REPORT_KEYS = {"dataset", "pairs", "positives", "mode", "config_digest", "fold_metrics", "means", "sds",
                "curve_files", "checkpoint_files"}


def _check_report_values(report: dict, path: str) -> None:
    """Raise MissingArtifactError naming the first key `cmd_report` reads whose value has the wrong type."""

    def numbers(v):
        return isinstance(v, dict) and all(x is None or type(x) in (int, float) for x in v.values())

    def names(v):
        return isinstance(v, list) and all(isinstance(x, str) for x in v)

    for key, needs, ok in (
        ("curve_files", "a list of file names", names),
        ("checkpoint_files", "a list of file names", names),
        ("fold_metrics", "a list", lambda v: isinstance(v, list)),
        ("config_digest", "a string", lambda v: isinstance(v, str)),
        ("means", "an object of numbers with auPR and auROC",
         lambda v: numbers(v) and {"auPR", "auROC"} <= v.keys()),
        ("sds", "an object of numbers with the keys of means",
         lambda v: numbers(v) and report["means"].keys() <= v.keys()),
    ):
        if not ok(report[key]):
            raise MissingArtifactError(f"{path}: malformed report: {key!r} must be {needs}")


def cmd_report(run_dir: str) -> dict:
    """Summarize a finished run directory; fails closed on missing artifacts."""
    report_path = os.path.join(run_dir, "report.json")
    if not os.path.exists(report_path):
        raise MissingArtifactError(f"missing artifacts in {run_dir}: ['report.json']")
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError as e:  # undecodable bytes or truncated JSON
        raise MissingArtifactError(f"{report_path}: malformed report: {e}") from None
    if not isinstance(report, dict) or not _REPORT_KEYS <= report.keys():
        raise MissingArtifactError(f"{report_path}: malformed report: needs the keys {sorted(_REPORT_KEYS)}")
    _check_report_values(report, report_path)
    missing = [
        rel
        for rel in report["curve_files"] + report["checkpoint_files"]
        if not os.path.exists(os.path.join(run_dir, rel))
    ]
    if missing:
        raise MissingArtifactError(f"missing artifacts in {run_dir}: {sorted(missing)}")

    def fmt(v):
        return "n/a" if v is None else "%.4f" % v

    means, sds = report["means"], report["sds"]
    table_path = os.path.join(run_dir, "metrics.tsv")
    write_table(table_path, ("dataset", "mode", "metric", "mean", "sd"), (
        (str(report["dataset"]), str(report["mode"]), key, fmt(means[key]), fmt(sds[key]))
        for key in sorted(means)
    ))
    summary_path = os.path.join(run_dir, "summary.txt")
    with atomic_write(summary_path) as fh:
        fh.write(f"dataset {report['dataset']}: {report['pairs']} pairs, "
                 f"{report['positives']} positive\n")
        fh.write(f"mode {report['mode']}, config {report['config_digest'][:12]}\n")
        fh.write(f"folds x repeats evaluated: {len(report['fold_metrics'])}\n")
        for key in ("auPR", "auROC"):
            fh.write(f"{key}: mean {fmt(means[key])} sd {fmt(sds[key])}\n")
        fh.write(f"curve files: {len(report['curve_files'])}\n")
    return {"summary": summary_path, "table": table_path, "report": report}
