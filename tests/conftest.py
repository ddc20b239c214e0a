"""Shared fixtures for the tier-1 tests."""

from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def eigh_sizes(monkeypatch):
    """A Counter of matrix size -> ``numpy.linalg.eigh`` calls made while the test runs."""
    sizes: Counter = Counter()
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes[np.shape(a)[-1]] += 1
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return sizes
