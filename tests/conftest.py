"""Shared fixtures for the tier-1 tests."""

from collections import Counter

import numpy as np
import pytest


def _watch_solvers(monkeypatch, names, record) -> None:
    """Patch the named ``numpy.linalg`` solvers to call ``record(name, a)`` on each input."""
    for name in names:
        original = getattr(np.linalg, name)

        def watched(a, *args, _name=name, _original=original, **kwargs):
            record(_name, a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)


def _count_solves(monkeypatch, names) -> Counter:
    """Patch the named ``numpy.linalg`` solvers to count calls by matrix size."""
    sizes: Counter = Counter()
    _watch_solvers(monkeypatch, names, lambda name, a: sizes.update([np.shape(a)[-1]]))
    return sizes


@pytest.fixture
def eigh_sizes(monkeypatch):
    """A Counter of matrix size -> eigensolves (``eigh`` and ``eigvalsh``) made during the test."""
    return _count_solves(monkeypatch, ("eigh", "eigvalsh"))


@pytest.fixture
def vector_solve_sizes(monkeypatch):
    """A Counter of matrix size -> ``numpy.linalg.eigh`` calls (solves with eigenvectors)."""
    return _count_solves(monkeypatch, ("eigh",))


@pytest.fixture
def solve_calls(monkeypatch):
    """Every ``numpy.linalg`` ``eigh``, ``eigvalsh`` and ``svd`` call made during the
    test, in order, as (solver, input shape, whether the input is complex)."""
    calls: list = []

    def record(name, a):
        calls.append((name, np.shape(a), np.iscomplexobj(a)))

    _watch_solvers(monkeypatch, ("eigh", "eigvalsh", "svd"), record)
    return calls
