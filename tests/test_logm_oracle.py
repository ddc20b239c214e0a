"""Differential tests against an independent oracle built on ``scipy.linalg.logm``.

The oracle never calls qentropy's entropy code: it takes matrix logarithms
with scipy, partial traces with numpy reshapes, and von Neumann entropies as
-Tr rho logm(rho). It needs full-rank matrices, so the mixed states are
full-rank Ginibre draws of dimension at most 6, and the pure states on A:2,
B:3 are checked through their full-rank 2 x 2 marginals: for a pure state
H(A|B) = -S(rho_A) and I(A:B) = 2 S(rho_A). The pure states must take the
factor route, so densifying one raises here.

Channel information is checked on the dense output (Phi x id_R)(psi psi^dagger)
of the oracle's own purification psi of the input, whose reference R has the
input's rank: with at least d_out * rank Kraus operators that output, its
marginal on the channel output B and the reference marginal are full rank, so
I(B:R) = S(B) + S(R) - S(BR) and I_c = I(B:R) - S(R) take logm of full-rank
matrices alone, for full-rank and rank-deficient inputs.
"""

import numpy as np
import pytest
from scipy.linalg import logm

from qentropy.channels import (
    KrausChannel,
    channel_mutual_information,
    coherent_information,
    random_channel,
)
from qentropy.entropy import (
    conditional_entropy,
    mutual_information_states,
    relative_entropy,
    von_neumann_entropy,
)
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    random_density_matrix,
    random_pure_state,
    single,
)

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


def oracle_channel_information(rho, kraus_ops):
    """I(B:R) and I_c of (channel x id_R) on a purification of rho, from logm of
    the dense output; R has rho's rank."""
    w, u = np.linalg.eigh(rho)
    support = w > 1e-12
    psi = (u[:, support] * np.sqrt(w[support])).reshape(-1)  # |psi> on input x R
    d_ref = int(support.sum())
    joint = np.outer(psi, psi.conj())
    out = 0
    for k in kraus_ops:
        extended = np.kron(k, np.eye(d_ref))
        out = out + extended @ joint @ extended.conj().T
    rho_b, rho_r = oracle_marginals(out, kraus_ops[0].shape[0], d_ref)
    s_br, s_b, s_r = (oracle_entropy(m) for m in (out, rho_b, rho_r))
    mutual = s_b + s_r - s_br
    return mutual, mutual - s_r


# a 3 -> 2 channel with 6 = d_out * 3 Kraus operators, so the output is full rank
CHANNEL_SHAPE = (3, 2, 6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rank", [3, 2, 1])
def test_channel_information_matches_logm_of_the_dense_output(rank, seed):
    rho = random_density_matrix(3, rank=rank, seed=seed)
    channel = random_channel(*CHANNEL_SHAPE, seed=seed + 50)
    mutual, coherent = oracle_channel_information(rho.entries, channel.kraus_ops)
    assert abs(channel_mutual_information(rho, channel) - mutual) <= AGREEMENT
    assert abs(coherent_information(rho, channel) - coherent) <= AGREEMENT


@pytest.mark.parametrize("one_channel", [True, False], ids=["one-channel", "channel-stack"])
def test_stacked_channel_information_of_mixed_ranks_matches_logm(one_channel):
    ranks = (3, 1, 2, 3)
    rows = [random_density_matrix(3, rank=r, seed=10 + i).entries for i, r in enumerate(ranks)]
    channels = [random_channel(*CHANNEL_SHAPE, seed=60 + row) for row in range(len(rows))]
    if one_channel:
        channels = channels[:1] * len(rows)
        channel = channels[0]
    else:
        channel = KrausChannel(np.stack([c.kraus_ops for c in channels], axis=1))
    stack = DensityMatrix(np.stack(rows), single("A", 3))
    expected = np.array(
        [oracle_channel_information(row, c.kraus_ops) for row, c in zip(rows, channels)]
    )
    assert np.max(np.abs(channel_mutual_information(stack, channel) - expected[:, 0])) <= AGREEMENT
    assert np.max(np.abs(coherent_information(stack, channel) - expected[:, 1])) <= AGREEMENT
