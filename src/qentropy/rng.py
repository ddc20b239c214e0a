"""Seeded random-number plumbing.

Every random constructor in the library draws from a PCG64 generator seeded
explicitly, so results are bit-reproducible across runs and platforms.
Randomized suites fan out one generator per trial with

    trial_seed(master_seed, i) == master_seed XOR i

which keeps trials independent of execution order.

A random object is drawn, then built. The draw is the generator's calls
alone: complex Gaussian entries come from :func:`normal_pairs`, sized by a
draw function beside the builder (``states._ginibre_pairs``). The build is
arithmetic on the drawn numbers, written once for a stack of draws on a
leading axis; a public constructor such as ``states.ginibre_state`` builds a
single draw with it, and the property checks draw per trial and build per
stack.
"""

from __future__ import annotations

import numpy as np


def generator(seed: int) -> np.random.Generator:
    """Return the library's named generator (PCG64) for a seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def trial_seed(master_seed: int, trial: int) -> int:
    """Derive the per-trial seed: master XOR trial index."""
    return int(master_seed) ^ int(trial)


def normal_pairs(rng: np.random.Generator, size: int) -> np.ndarray:
    """One draw of ``size`` complex Gaussian entries: their real parts, then
    their imaginary parts, as one (2, size) array of N(0,1) samples."""
    return rng.standard_normal((2, size))


def complex_normal(pairs: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian entries (N(0,1) + i N(0,1)) / sqrt(2) from
    :func:`normal_pairs` draws (..., 2, size): (..., size)."""
    return (pairs[..., 0, :] + 1j * pairs[..., 1, :]) / np.sqrt(2.0)
