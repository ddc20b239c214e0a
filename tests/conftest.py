"""Shared fixtures for the tier-1 tests."""

from collections import Counter

import numpy as np
import pytest


def _count_solves(monkeypatch, names) -> Counter:
    """Patch the named ``numpy.linalg`` solvers to count calls by matrix size."""
    sizes: Counter = Counter()
    for name in names:
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, **kwargs):
            sizes[np.shape(a)[-1]] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


@pytest.fixture
def eigh_sizes(monkeypatch):
    """A Counter of matrix size -> eigensolves (``eigh`` and ``eigvalsh``) made during the test."""
    return _count_solves(monkeypatch, ("eigh", "eigvalsh"))


@pytest.fixture
def vector_solve_sizes(monkeypatch):
    """A Counter of matrix size -> ``numpy.linalg.eigh`` calls (solves with eigenvectors)."""
    return _count_solves(monkeypatch, ("eigh",))
