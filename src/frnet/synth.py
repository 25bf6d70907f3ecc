"""Synthetic datasets for desk-scale training checks.

Three generators with fixed statistical shapes:

  * a rank-3 feature matrix (each feature copies one of three latent
    factors, plus bounded noise) that an autoencoder must find easy;
  * two well-separated Gaussian blobs with a minority positive class,
    solvable by a nearest-centroid rule before any training;
  * unstructured uniform features with arbitrary balanced labels, which
    only memorization can fit.

All draw from seeded generator streams, so a (seed, shape) pair names the
dataset exactly.
"""

import numpy as np

from .data import Dataset
from .rng import SYNTH, stream


def _ids(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"d{i}" for i in range(n)), tuple(f"t{i}" for i in range(n))


def synth_rank3(n: int = 200, width: int = 1476, seed: int = 0, noise: float = 0.01) -> Dataset:
    """Rank-3 feature matrix with per-element noise bounded by `noise`.

    Each feature column equals one of three latent factors; factor values
    are bimodal with a margin around 0.5, so the 0/1 rounding used by
    reconstruction accuracy is stable under the noise.
    """
    rng = stream(seed, SYNTH, 3)
    bits = rng.integers(0, 2, size=(n, 3))
    factors = np.where(bits == 1, rng.uniform(0.55, 0.95, size=(n, 3)),
                       rng.uniform(0.05, 0.45, size=(n, 3)))
    assignment = rng.integers(0, 3, size=width)
    feats = factors[:, assignment] + rng.uniform(-noise, noise, size=(n, width))
    labels = np.arange(n) % 2
    drug_ids, target_ids = _ids(n)
    return Dataset("synth-rank3", drug_ids, target_ids, feats.astype(np.float32), labels)


def synth_blobs(
    n: int = 500,
    width: int = 255,
    positive_fraction: float = 0.1,
    separation: float = 0.3,
    spread: float = 0.05,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian blobs: positives centered high, negatives low, per feature."""
    rng = stream(seed, SYNTH, 2)
    n_pos = max(1, round(n * positive_fraction))
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=n_pos, replace=False)] = 1
    lo = 0.5 - separation / 2
    hi = 0.5 + separation / 2
    centers = np.where(labels[:, None] == 1, hi, lo)
    feats = rng.normal(loc=centers, scale=spread, size=(n, width))
    drug_ids, target_ids = _ids(n)
    return Dataset("synth-blobs", drug_ids, target_ids, feats.astype(np.float32), labels)


def synth_random(n: int = 64, width: int = 256, seed: int = 0) -> Dataset:
    """Uniform features with balanced labels carrying no signal."""
    rng = stream(seed, SYNTH, 1)
    feats = rng.uniform(0.0, 1.0, size=(n, width))
    labels = rng.permutation(np.arange(n) % 2)
    drug_ids, target_ids = _ids(n)
    return Dataset("synth-random", drug_ids, target_ids, feats.astype(np.float32), labels)


def permute_labels(d: Dataset, seed: int = 0) -> Dataset:
    """Same features and ids, labels shuffled; destroys any feature-label link."""
    rng = stream(seed, SYNTH, 0)
    return Dataset(
        f"{d.name}-permuted",
        d.drug_ids,
        d.target_ids,
        d.features,
        rng.permutation(d.labels),
    )
