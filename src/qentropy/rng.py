"""Seeded random-number plumbing.

Every random constructor in the library draws from a PCG64 generator seeded
explicitly, so results are bit-reproducible across runs and platforms.
Randomized suites draw their trials a block of :data:`BLOCK` at a time:
random trial i is row ``i % BLOCK`` of block ``i // BLOCK``, and block b
draws from

    block_generator(master_seed, b)
        == Generator(PCG64(SeedSequence(master_seed, spawn_key=(b,))))

which is numpy's child stream ``SeedSequence(master_seed).spawn(b + 1)[b]``.
Child streams are independent of each other, of every other master's
children, and of the master's own stream ``generator(master_seed)``, which
named fixed trials draw from. A block is always drawn whole, so trial i's
numbers do not depend on how many trials run. A report's config records
this derivation as :data:`SEEDING`.

A random object is drawn, then built. The draw is the generator's calls
alone: complex Gaussian entries come from :func:`normal_pairs`, sized by a
draw function beside the builder (``states._ginibre_pairs``), one draw or a
block of rows per call. The build is arithmetic on the drawn numbers,
written once for a stack of draws on a leading axis; a public constructor
such as ``states.ginibre_state`` builds a single draw with it, and the
property checks draw per block and build per stack.
"""

from __future__ import annotations

import numpy as np

# random trials per block, each block drawn from its own spawned generator
BLOCK = 64
# the trial derivation, as a check report's config names it
SEEDING = f"spawn-blocks-{BLOCK}"


def generator(seed: int) -> np.random.Generator:
    """Return the library's named generator (PCG64) for a seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def block_generator(master_seed: int, block: int) -> np.random.Generator:
    """The generator of random-trial block ``block``: the master seed's child
    stream with spawn key ``(block,)``."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.PCG64(seq))


def normal_pairs(rng: np.random.Generator, size: int, rows: int | None = None) -> np.ndarray:
    """One draw of ``size`` complex Gaussian entries: their real parts, then
    their imaginary parts, as one (2, size) array of N(0,1) samples; or
    ``rows`` such draws in one call, (rows, 2, size), each row the numbers
    that many one-draw calls would give in turn."""
    return rng.standard_normal((2, size) if rows is None else (rows, 2, size))


def complex_normal(pairs: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian entries (N(0,1) + i N(0,1)) / sqrt(2) from
    :func:`normal_pairs` draws (..., 2, size): (..., size)."""
    return (pairs[..., 0, :] + 1j * pairs[..., 1, :]) / np.sqrt(2.0)
