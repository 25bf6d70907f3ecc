"""Confusion rates, ROC/PR areas against brute-force oracles, aggregation."""

import math

import numpy as np
import pytest

from frnet.errors import MetricError
from frnet.metrics import (
    ScoredLabels,
    aggregate,
    aupr,
    auroc,
    confusion_rates,
    evaluate_scores,
    pr_points,
    roc_points,
)


def _auroc_pairwise(scores, labels):
    """Mann-Whitney count over every positive-negative pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                credit += 1.0
            elif sp == sn:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def _aupr_exhaustive(scores, labels):
    """Step-integrated PR area over every distinct threshold."""
    p = sum(labels)
    pts = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        pts.append((tp / p, tp / (tp + fp)))
    area, prev_r = 0.0, 0.0
    for r, prec in pts:
        area += (r - prev_r) * prec
        prev_r = r
    return area


def _random_instance(rng):
    n = int(rng.integers(2, 301))
    labels = rng.integers(0, 2, size=n)
    # force both classes so curve metrics are defined
    labels[0], labels[1] = 1, 0
    style = rng.integers(0, 3)
    if style == 0:
        scores = rng.random(n)
    elif style == 1:
        scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
    else:
        scores = np.round(rng.random(n), 2)  # moderate ties
    return scores, labels


def test_auroc_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(200):
        scores, labels = _random_instance(rng)
        got = auroc(ScoredLabels(scores, labels))
        want = _auroc_pairwise(scores.tolist(), labels.tolist())
        assert abs(got - want) < 1e-9


def test_aupr_matches_exhaustive_threshold_oracle():
    rng = np.random.default_rng(202)
    for _ in range(200):
        scores, labels = _random_instance(rng)
        got = aupr(ScoredLabels(scores, labels))
        want = _aupr_exhaustive(scores.tolist(), labels.tolist())
        assert abs(got - want) < 1e-9


def test_perfect_and_inverted_rankings():
    p, n = 7, 13
    labels = np.array([1] * p + [0] * n)
    perfect = np.concatenate([np.linspace(0.6, 1.0, p), np.linspace(0.0, 0.4, n)])
    s = ScoredLabels(perfect, labels)
    assert auroc(s) == 1.0
    assert aupr(s) == 1.0
    inverted = ScoredLabels(-perfect, labels)
    assert auroc(inverted) == 0.0
    # every positive sits behind all negatives: precision at the i-th
    # positive is i/(n+i), each contributing recall mass 1/p
    want = sum((1 / p) * (i / (n + i)) for i in range(1, p + 1))
    assert abs(aupr(inverted) - want) < 1e-12


def test_all_tied_scores():
    labels = np.array([1, 1, 0, 0, 0, 0, 0, 1, 0, 0])
    s = ScoredLabels(np.full(10, 0.35), labels)
    assert auroc(s) == 0.5
    assert aupr(s) == labels.mean()  # one block at prevalence


def test_auroc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(33)
    scores = rng.random(120)
    labels = rng.integers(0, 2, size=120)
    labels[:2] = [0, 1]
    base = auroc(ScoredLabels(scores, labels))
    for f in (lambda x: 3 * x + 1, np.exp, lambda x: x**3 + x):
        assert abs(auroc(ScoredLabels(f(scores), labels)) - base) < 1e-12


def test_auroc_score_negation_identity_without_ties():
    rng = np.random.default_rng(44)
    scores = rng.permutation(np.linspace(0.01, 0.99, 80))
    labels = rng.integers(0, 2, size=80)
    labels[:2] = [0, 1]
    a = auroc(ScoredLabels(scores, labels))
    b = auroc(ScoredLabels(-scores, labels))
    assert abs(a + b - 1.0) < 1e-12


def test_threshold_sweep_reproduces_roc_points():
    rng = np.random.default_rng(55)
    scores = np.round(rng.random(60), 1)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    s = ScoredLabels(scores, labels)
    swept = {(0.0, 0.0)}
    for t in set(scores.tolist()):
        r = confusion_rates(s, threshold=t)
        swept.add((r["fpr"], r["sensitivity"]))
    assert swept == set(roc_points(s))


def test_confusion_hand_counted_example():
    s = ScoredLabels(np.array([0.9, 0.8, 0.4, 0.1]), np.array([1, 0, 1, 0]))
    r = confusion_rates(s, threshold=0.5)
    assert r == {
        "sensitivity": 0.5,
        "precision": 0.5,
        "specificity": 0.5,
        "fpr": 0.5,
        "accuracy": 0.5,
    }


def test_confusion_perfect_classifier():
    s = ScoredLabels(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    r = confusion_rates(s)
    assert r["sensitivity"] == 1.0 and r["specificity"] == 1.0
    assert r["fpr"] == 0.0 and r["accuracy"] == 1.0


def test_undefined_ratios_are_none():
    s = ScoredLabels(np.array([0.1, 0.2]), np.array([1, 0]))
    r = confusion_rates(s, threshold=0.9)  # nothing predicted positive
    assert r["precision"] is None
    assert r["sensitivity"] == 0.0
    all_pos = ScoredLabels(np.array([0.8, 0.9]), np.array([1, 1]))
    r = confusion_rates(all_pos, threshold=0.5)
    assert r["specificity"] is None and r["fpr"] is None


def test_scored_labels_validation():
    with pytest.raises(MetricError):
        ScoredLabels(np.array([]), np.array([]))
    with pytest.raises(MetricError):
        ScoredLabels(np.array([0.5]), np.array([2]))
    with pytest.raises(MetricError):
        ScoredLabels(np.array([np.nan]), np.array([1]))
    with pytest.raises(MetricError):
        ScoredLabels(np.array([0.5, 0.5]), np.array([1]))


def test_single_class_errors():
    with pytest.raises(MetricError):
        auroc(ScoredLabels(np.array([0.5, 0.6]), np.array([1, 1])))
    with pytest.raises(MetricError):
        aupr(ScoredLabels(np.array([0.5, 0.6]), np.array([0, 0])))


def test_evaluate_scores_bundles_everything():
    s = ScoredLabels(np.array([0.9, 0.8, 0.4, 0.1]), np.array([1, 0, 1, 0]))
    out = evaluate_scores(s)
    assert set(out) == {
        "auROC", "auPR", "sensitivity", "precision", "specificity", "fpr", "accuracy",
    }
    assert out["auROC"] == auroc(s)


def test_aggregate_single_and_pair():
    one = aggregate([{"auROC": 0.9}])
    assert one.means["auROC"] == 0.9 and one.sds["auROC"] == 0.0
    two = aggregate([{"auROC": 0.9}, {"auROC": 0.95}])
    assert abs(two.means["auROC"] - 0.925) < 1e-12


def test_aggregate_matches_scalar_oracle():
    rng = np.random.default_rng(66)
    reports = [{"auROC": float(rng.random()), "auPR": float(rng.random())} for _ in range(10)]
    rep = aggregate(reports)
    for key in ("auROC", "auPR"):
        vals = [r[key] for r in reports]
        mean = sum(vals) / 10
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / 9)
        assert abs(rep.means[key] - mean) < 1e-12
        assert abs(rep.sds[key] - sd) < 1e-12


def test_aggregate_skips_none_and_ignores_bookkeeping_keys():
    rep = aggregate(
        [
            {"fold": 0, "precision": None, "auROC": 0.8},
            {"fold": 1, "precision": 0.5, "auROC": 0.9},
        ]
    )
    assert rep.means["precision"] == 0.5 and rep.sds["precision"] == 0.0
    assert "fold" not in rep.means
    empty = aggregate([{"precision": None}])
    assert empty.means["precision"] is None
    with pytest.raises(MetricError):
        aggregate([])

