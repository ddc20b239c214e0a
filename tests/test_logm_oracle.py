"""Differential tests against an independent oracle built on ``scipy.linalg.logm``.

The oracle never calls qentropy's entropy code: it takes matrix logarithms
with scipy, partial traces with numpy reshapes, and von Neumann entropies as
-Tr rho logm(rho). It needs full-rank matrices, so the mixed states are
full-rank Ginibre draws of dimension at most 6, and the pure states on A:2,
B:3 are checked through their full-rank 2 x 2 marginals: for a pure state
H(A|B) = -S(rho_A) and I(A:B) = 2 S(rho_A). The pure states must take the
factor route, so densifying one raises here.
"""

import numpy as np
import pytest
from scipy.linalg import logm

from qentropy.entropy import (
    conditional_entropy,
    mutual_information_states,
    relative_entropy,
    von_neumann_entropy,
)
from qentropy.states import PureState, SubsystemLayout, random_density_matrix, random_pure_state

AGREEMENT = 1e-10  # nats
SEEDS = range(5)
# (d_A, d_B) layouts of dimension at most 6
LAYOUTS = [(2, 2), (2, 3), (3, 2)]


def oracle_entropy(m):
    return -np.trace(m @ logm(m)).real


def oracle_relative_entropy(rho, sigma):
    return np.trace(rho @ (logm(rho) - logm(sigma))).real


def oracle_marginals(m, d_a, d_b):
    t = m.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("abcb->ac", t), np.einsum("abad->bd", t)


def pair(d_a, d_b):
    return SubsystemLayout([("A", d_a), ("B", d_b)])


@pytest.fixture
def no_densify(monkeypatch):
    def densify(self):
        raise AssertionError("a pure state was densified")

    monkeypatch.setattr(PureState, "as_density", densify)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_relative_entropy_matches_logm(dim, seed):
    rho = random_density_matrix(dim, seed=seed)
    sigma = random_density_matrix(dim, seed=seed + 100)
    expected = oracle_relative_entropy(rho.entries, sigma.entries)
    assert abs(relative_entropy(rho, sigma) - expected) <= AGREEMENT


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", LAYOUTS)
def test_conditional_entropy_and_mutual_information_match_logm(dims, seed):
    rho = random_density_matrix(dims[0] * dims[1], seed=seed, layout=pair(*dims))
    rho_a, rho_b = oracle_marginals(rho.entries, *dims)
    s_ab, s_a, s_b = (oracle_entropy(m) for m in (rho.entries, rho_a, rho_b))
    assert abs(conditional_entropy(rho, "A", "B") - (s_ab - s_b)) <= AGREEMENT
    assert abs(conditional_entropy(rho, "B", "A") - (s_ab - s_a)) <= AGREEMENT
    assert abs(mutual_information_states(rho, "A", "B") - (s_a + s_b - s_ab)) <= AGREEMENT


def pure_oracle(amplitudes):
    """-S(rho_A) for a pure state on A:2, B:3, from its full-rank 2 x 2 marginal."""
    psi = amplitudes.reshape(2, 3)
    return -oracle_entropy(psi @ psi.conj().T)


@pytest.mark.parametrize("seed", SEEDS)
def test_pure_state_matches_logm_of_its_marginal(seed, no_densify):
    psi = random_pure_state(pair(2, 3), seed=seed)
    expected = pure_oracle(psi.amplitudes)
    assert abs(conditional_entropy(psi, "A", "B") - expected) <= AGREEMENT
    assert abs(conditional_entropy(psi, "B", "A") - expected) <= AGREEMENT
    assert abs(mutual_information_states(psi, "A", "B") + 2.0 * expected) <= AGREEMENT
    assert von_neumann_entropy(psi) == 0.0


def test_stacked_pure_states_match_logm_row_by_row(no_densify):
    rows = [random_pure_state(pair(2, 3), seed=seed).amplitudes for seed in SEEDS]
    stack = PureState(np.stack(rows), pair(2, 3))
    expected = np.array([pure_oracle(amplitudes) for amplitudes in rows])
    cond = conditional_entropy(stack, "A", "B")
    info = mutual_information_states(stack, "A", "B")
    assert cond.shape == info.shape == (len(rows),)
    assert np.max(np.abs(cond - expected)) <= AGREEMENT
    assert np.max(np.abs(info + 2.0 * expected)) <= AGREEMENT
    assert np.array_equal(von_neumann_entropy(stack), np.zeros(len(rows)))
