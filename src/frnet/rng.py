"""Deterministic random stream derivation.

A single master seed drives every random decision in a run. Each purpose
(weight init, batch shuffling, dropout masks, fold assignment, synthetic
data) gets its own independent stream derived as

    SeedSequence([master_seed, purpose, *path])

so changing, say, the number of epochs never perturbs fold assignment.
The integer `path` components identify repeat/fold/epoch/batch as needed.
"""

import numpy as np

INIT = 1
SHUFFLE = 2
DROPOUT = 3
FOLDS = 4
SYNTH = 5


def stream(seed: int, purpose: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for (seed, purpose, path).

    `models._glorot` relies on this being PCG64: each double a `uniform`
    draw returns spends exactly one 64-bit output, so `bit_generator.advance(n)`
    skips n doubles, and a weight's draws can be split into pieces that each
    start from an advanced copy of the stream.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose, *path])))


def derive_key(seed: int, purpose: int, *path: int) -> int:
    """Return a 32-bit key for (seed, purpose, path), e.g. a dropout seed."""
    return int(np.random.SeedSequence([seed, purpose, *path]).generate_state(1)[0])
