"""Dataset ingestion, min-max scaling, padding/reshaping, and fold plans.

Two input formats are accepted (documented in the README): delimited text
(comma or tab) with optional header and optional leading drug-id/target-id
columns, and sparse index:value rows. The extracted-feature file written
between the two training stages is the delimited form with ids, rendered
with %.9g so 32-bit values survive the text round trip bit-exactly.
Every file the program writes goes through `atomic_write`, so it is whole or
absent: the checkpoints, and through `write_table` every TSV (feature
files, training logs, curve points, report tables).
"""

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeMismatchError
from .rng import FOLDS, stream


@dataclass(frozen=True)
class ScalingRecord:
    """Per-feature minima and maxima captured from training data."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.ascontiguousarray(self.mins, dtype=np.float32)
        maxs = np.ascontiguousarray(self.maxs, dtype=np.float32)
        if mins.ndim != 1 or mins.shape != maxs.shape:
            raise ShapeMismatchError("scaling record needs parallel 1-d min/max arrays")
        if np.any(maxs < mins):
            raise DataError("scaling record has max < min")
        mins.flags.writeable = False
        maxs.flags.writeable = False
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def width(self) -> int:
        return self.mins.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Immutable rows of (drug-id, target-id, features, label)."""

    name: str
    drug_ids: tuple[str, ...]
    target_ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ShapeMismatchError(f"features must be [rows, width], got {feats.shape}")
        n = feats.shape[0]
        if not (len(self.drug_ids) == len(self.target_ids) == labels.shape[0] == n):
            raise ShapeMismatchError("ids, features and labels disagree on row count")
        if not np.isfinite(feats).all():
            raise DataError(f"dataset {self.name}: non-finite feature values")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError(f"dataset {self.name}: labels must be 0 or 1")
        for row, (drug, target) in enumerate(zip(self.drug_ids, self.target_ids)):
            if fault := _id_fault(drug, target):
                raise DataError(f"dataset {self.name}: row {row}: {fault}")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "drug_ids", tuple(self.drug_ids))
        object.__setattr__(self, "target_ids", tuple(self.target_ids))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    @property
    def positives(self) -> int:
        return int(self.labels.sum())


def subset(d: Dataset, indices: np.ndarray) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        d.name,
        tuple(d.drug_ids[i] for i in idx),
        tuple(d.target_ids[i] for i in idx),
        d.features[idx],
        d.labels[idx],
    )


DELIMITED = "delimited-text"
SPARSE = "sparse-index-value"


def _parse_label(token: str, where: str) -> int:
    try:
        v = float(token)
    except ValueError:
        raise DataError(f"{where}: label {token!r} is not numeric") from None
    if v not in (0.0, 1.0):
        raise DataError(f"{where}: label must be 0 or 1, got {token!r}")
    return int(v)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _id_fault(drug: str, target: str) -> str | None:
    """Why a feature file could not carry this row's ids back unchanged, or None.

    `read_feature_file` strips each field, splits lines as `str.splitlines`
    does, skips a line that starts with `#` after its leading whitespace,
    and takes a row whose first field is a number for one without ids.
    """
    for s in (drug, target):
        if "\t" in s:
            return "a drug or target id holds a tab"
        utf8 = s.encode(errors="replace").decode()  # a lone surrogate becomes "?"
        if "".join(s.splitlines()) != s or s != s.strip() or utf8 != s:
            return f"id {s!r} holds a line break, surrounding whitespace or a lone surrogate"
    if not drug or drug.startswith("#") or _is_number(drug):
        return f"drug id {drug!r} is empty, starts with '#' or reads as a number"
    return None


def _load_delimited(path: str, lines: list[tuple[int, str]]):
    first = lines[0][1]
    sep = "\t" if first.count("\t") >= first.count(",") else ","
    # Header row: last field of the first line is not a number.
    if not _is_number(first.split(sep)[-1].strip()):
        lines = lines[1:]
        if not lines:
            raise DataError(f"{path}: no data rows after header")
    drug_ids, target_ids, labels, rows = [], [], [], []
    width = None
    has_ids = not _is_number(lines[0][1].split(sep)[0].strip())
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        fields = [f.strip() for f in line.split(sep)]
        if _is_number(fields[0]) == has_ids:
            raise DataError(f"{where}: drug and target ids must be on every row or on none")
        if has_ids:
            if len(fields) < 4:
                raise DataError(f"{where}: expected drug-id, target-id, label, features")
            if fault := _id_fault(fields[0], fields[1]):  # a feature file could not carry it back
                raise DataError(f"{where}: {fault}")
            drug_ids.append(fields[0])
            target_ids.append(fields[1])
            fields = fields[2:]
        else:
            drug_ids.append(f"row{len(rows)}")
            target_ids.append(f"row{len(rows)}")
        labels.append(_parse_label(fields[0], where))
        try:
            feats = [float(f) for f in fields[1:]]
        except ValueError as e:
            raise DataError(f"{where}: {e}") from None
        if width is None:
            width = len(feats)
            if width == 0:
                raise DataError(f"{where}: row has no feature columns")
        elif len(feats) != width:
            raise DataError(f"{where}: row has {len(feats)} features, expected {width}")
        rows.append(feats)
    return drug_ids, target_ids, labels, np.array(rows, dtype=np.float32)


def _load_sparse(path: str, lines: list[tuple[int, str]], feature_count: int | None):
    labels, entries, max_idx, saw_zero = [], [], -1, False
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        tokens = line.split()
        labels.append(_parse_label(tokens[0], where))
        pairs = []
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise DataError(f"{where}: bad index:value token {tok!r}") from None
            if idx < 0:
                raise DataError(f"{where}: negative feature index {idx}")
            pairs.append((idx, val))
            max_idx = max(max_idx, idx)
            saw_zero = saw_zero or idx == 0
        entries.append(pairs)
    # Indices are 0-based; a file that never uses index 0 and tops out at
    # exactly the declared width is accepted as 1-based.
    base = 1 if (feature_count is not None and not saw_zero and max_idx == feature_count) else 0
    width = feature_count if feature_count is not None else max_idx + 1
    if width < 1:
        raise DataError(f"{path}: could not infer feature width")
    try:
        feats = np.zeros((len(entries), width), dtype=np.float32)
    except (ValueError, MemoryError):
        raise DataError(f"{path}: cannot allocate {len(entries)} rows of width {width}") from None
    for row, pairs in enumerate(entries):
        for idx, val in pairs:
            j = idx - base
            if j >= width or j < 0:
                raise DataError(f"{path}: feature index {idx} out of range for width {width}")
            feats[row, j] = val
    ids = [f"row{i}" for i in range(len(entries))]
    return ids, list(ids), labels, feats


def load_dataset(
    path: str,
    format: str = DELIMITED,
    name: str = "custom",
    feature_count: int | None = None,
) -> Dataset:
    """Parse a dataset file; errors carry path and line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: {e}") from None
    lines = [
        (i + 1, ln)
        for i, ln in enumerate(raw.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise DataError(f"{path}: no data rows")
    if format == DELIMITED:
        drug_ids, target_ids, labels, feats = _load_delimited(path, lines)
    elif format == SPARSE:
        drug_ids, target_ids, labels, feats = _load_sparse(path, lines, feature_count)
    else:
        raise DataError(f"unknown dataset format {format!r}; expected {DELIMITED!r} or {SPARSE!r}")
    if feature_count is not None and feats.shape[1] != feature_count:
        raise DataError(
            f"{path}: rows carry {feats.shape[1]} features, expected {feature_count}"
        )
    return Dataset(name, tuple(drug_ids), tuple(target_ids), feats, np.array(labels))


def imbalance_ratio(positives: int, negatives: int) -> float:
    """Negatives per positive, rounded to 2 decimals."""
    if positives <= 0:
        raise DataError("imbalance ratio undefined without positive instances")
    return round(negatives / positives, 2)


def dataset_stats(d: Dataset) -> dict:
    pos = d.positives
    return {
        "pairs": len(d),
        "positives": pos,
        "imbalance-ratio": imbalance_ratio(pos, len(d) - pos),
    }


def fit_scaling(features: np.ndarray) -> ScalingRecord:
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ShapeMismatchError("scaling needs a nonempty [rows, width] matrix")
    return ScalingRecord(feats.min(axis=0), feats.max(axis=0))


def apply_scaling(features: np.ndarray, record: ScalingRecord) -> np.ndarray:
    """(x - min) / (max - min) per feature, clipped to [0,1]; constant features map to 0.

    Held-out rows can fall outside the training range, so the clip keeps the
    [0,1] contract that the reconstruction loss relies on.
    """
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 2 or feats.shape[1] != record.width:
        raise ShapeMismatchError(
            f"features {feats.shape} do not match scaling record width {record.width}"
        )
    span = record.maxs - record.mins
    live = span > 0
    safe = np.where(live, span, np.float32(1.0))
    scaled = np.clip((feats - record.mins) / safe, 0.0, 1.0)
    scaled[:, ~live] = 0.0
    return scaled.astype(np.float32, copy=False)


def as_images(features: np.ndarray, orientation: tuple[int, int]) -> np.ndarray:
    """Append one zero to each row and view it row-major: [n, d] -> [n, h, w, 1]."""
    feats = np.asarray(features, dtype=np.float32)
    h, w = orientation
    if feats.ndim != 2 or feats.shape[1] + 1 != h * w:
        raise ShapeMismatchError(
            f"rows of width {feats.shape[1] if feats.ndim == 2 else '?'} cannot fill {h}x{w}"
        )
    padded = np.concatenate([feats, np.zeros((feats.shape[0], 1), dtype=np.float32)], axis=1)
    return padded.reshape(feats.shape[0], h, w, 1)


def as_square_images(features: np.ndarray) -> np.ndarray:
    """[n, side*side] -> [n, side, side, 1] row-major, no padding."""
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 2:
        raise ShapeMismatchError(f"expected [rows, width], got {feats.shape}")
    side = math.isqrt(feats.shape[1])
    if side * side != feats.shape[1]:
        raise ShapeMismatchError(f"width {feats.shape[1]} is not a perfect square")
    return feats.reshape(feats.shape[0], side, side, 1)


@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.int64)
        if a.ndim != 1 or (a.size and (a.min() < 0 or a.max() >= self.k)):
            raise DataError("fold assignments must map every row to a fold in [0, k)")
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def make_folds(d: Dataset, k: int = 5, seed: int = 0, stratified: bool = True) -> FoldPlan:
    """Shuffled k-fold assignment, deterministic in seed.

    Stratified mode shuffles each class separately and deals rows round-robin
    with one running counter, so fold sizes differ by at most one and per-fold
    positive counts differ by at most one. Plain mode shuffles all rows
    together (fold sizes still balanced, class mix left to chance). Both
    need k positives and k negatives: with fewer, some test fold lacks a class.
    """
    n = len(d)
    pos = d.positives
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    if pos < k:
        raise DataError(f"{pos} positive instances cannot stratify {k} folds")
    if n - pos < k:
        raise DataError(f"{n - pos} negative instances cannot stratify {k} folds")
    rng = stream(seed, FOLDS)
    assignments = np.empty(n, dtype=np.int64)
    if stratified:
        order = np.concatenate(
            [rng.permutation(np.flatnonzero(d.labels == 1)),
             rng.permutation(np.flatnonzero(d.labels == 0))]
        )
    else:
        order = rng.permutation(n)
    for c, row in enumerate(order):
        assignments[row] = c % k
    return FoldPlan(k, seed, assignments)


# ---------------------------------------------------------------------------
# written files

_F32_FMT = "%.9g"  # shortest decimal form that round-trips any float32


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file open for writing (UTF-8 text, or bytes) that replaces `path` on exit.

    It is a temp file beside `path`, fsynced and then renamed over it, so `path`
    is whole or absent; a failure leaves `path` as it was and removes the temp.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:  # the temp file is gone after a replace
        if os.path.exists(tmp):
            os.remove(tmp)


def write_table(path: str, columns, rows) -> None:
    """Write a tab-separated header of `columns`, then one line per row of formatted fields.

    The file goes through `atomic_write`, so a failure while `rows` is
    consumed leaves `path` as it was.
    """
    with atomic_write(path) as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def write_feature_file(path: str, d: Dataset) -> None:
    columns = ["drug-id", "target-id", "label"] + [f"f{i}" for i in range(d.feature_count)]
    write_table(path, columns, (
        [d.drug_ids[i], d.target_ids[i], str(int(d.labels[i]))] + [_F32_FMT % v for v in d.features[i]]
        for i in range(len(d))
    ))


def read_feature_file(path: str) -> Dataset:
    return load_dataset(path, format=DELIMITED, name="features")
