"""Confusion rates, ROC / precision-recall curves, and their areas.

Curves sweep the distinct scores in descending order, processing tied
scores as one block; a prediction is positive iff its score >= threshold.
auROC integrates TPR over FPR with the trapezoid rule, which under tie
blocks equals the Mann-Whitney statistic with half credit for ties. auPR
uses step (right-continuous) interpolation, sum of (R_i - R_{i-1}) * P_i,
since linear interpolation overstates area in PR space.

Ratios with zero denominators (no positives predicted, say) are reported
as None, a distinguished absent value, never silently 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class ScoredLabels:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise MetricError("scores and labels must be parallel 1-d sequences")
        if scores.size == 0:
            raise MetricError("empty score list")
        if not np.isfinite(scores).all():
            raise MetricError("scores must be finite")
        if not np.isin(labels, (0, 1)).all():
            raise MetricError("labels must be 0 or 1")
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.scores.size

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return len(self) - self.positives


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def confusion_rates(s: ScoredLabels, threshold: float = 0.5) -> dict:
    """Sensitivity, precision, specificity, FPR and accuracy at one threshold."""
    pred = s.scores >= threshold
    truth = s.labels == 1
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    tn = int(np.sum(~pred & ~truth))
    return {
        "sensitivity": _ratio(tp, tp + fn),
        "precision": _ratio(tp, tp + fp),
        "specificity": _ratio(tn, tn + fp),
        "fpr": _ratio(fp, fp + tn),
        "accuracy": (tp + tn) / len(s),
    }


def _blocks(s: ScoredLabels):
    """Cumulative (tp, fp) after each tied-score block, scores descending."""
    order = np.argsort(-s.scores, kind="stable")
    scores = s.scores[order]
    labels = s.labels[order]
    ends = np.flatnonzero(np.diff(scores) != 0)
    ends = np.append(ends, len(scores) - 1)
    cum_tp = np.cumsum(labels)[ends]
    cum_fp = (ends + 1) - cum_tp
    return scores[ends], cum_tp, cum_fp


def roc_points(s: ScoredLabels) -> list[tuple[float, float]]:
    """(FPR, TPR) per threshold block, starting at (0,0) and ending at (1,1)."""
    p, n = s.positives, s.negatives
    if p == 0 or n == 0:
        raise MetricError("ROC needs at least one positive and one negative")
    _, cum_tp, cum_fp = _blocks(s)
    pts = [(0.0, 0.0)]
    pts.extend((fp / n, tp / p) for tp, fp in zip(cum_tp, cum_fp))
    return pts


def pr_points(s: ScoredLabels) -> list[tuple[float, float]]:
    """(recall, precision) per threshold block, descending scores."""
    p = s.positives
    if p == 0:
        raise MetricError("precision-recall needs at least one positive")
    _, cum_tp, cum_fp = _blocks(s)
    return [(tp / p, tp / (tp + fp)) for tp, fp in zip(cum_tp, cum_fp)]


def auroc(s: ScoredLabels) -> float:
    pts = roc_points(s)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def aupr(s: ScoredLabels) -> float:
    pts = pr_points(s)
    area = 0.0
    prev_r = 0.0
    for r, p in pts:
        area += (r - prev_r) * p
        prev_r = r
    return area


def evaluate_scores(s: ScoredLabels, threshold: float = 0.5) -> dict:
    """All per-fold metrics in one dict: areas plus threshold rates."""
    out = {"auROC": auroc(s), "auPR": aupr(s)}
    out.update(confusion_rates(s, threshold))
    return out


@dataclass(frozen=True)
class EvalReport:
    """Per-fold metric dicts with their unweighted means and sample sds."""

    fold_metrics: tuple[dict, ...]
    means: dict
    sds: dict


_NON_METRIC_KEYS = {"fold", "repeat"}


def aggregate(reports: list[dict]) -> EvalReport:
    """Unweighted mean and sample standard deviation per metric.

    None entries (undefined ratios) are left out of a metric's aggregation;
    a metric absent or None everywhere aggregates to None. A single value
    has sd 0 by convention.
    """
    if not reports:
        raise MetricError("nothing to aggregate")
    keys = sorted({k for r in reports for k in r} - _NON_METRIC_KEYS)
    means, sds = {}, {}
    for k in keys:
        vals = [r[k] for r in reports if r.get(k) is not None]
        if not vals:
            means[k], sds[k] = None, None
            continue
        mean = sum(vals) / len(vals)
        if len(vals) > 1:
            sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        else:
            sd = 0.0
        means[k], sds[k] = mean, sd
    return EvalReport(tuple(dict(r) for r in reports), means, sds)

