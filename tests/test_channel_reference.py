"""Differential tests: channel information against the dense kron route.

The reference is the straightforward route the output factor replaces: it
densifies the purification of the input, applies ``K_j (x) I_R`` for every
Kraus operator, accumulates the (d_out * rank)-dimensional output state and
measures its mutual information between output and reference. The factored
route may move only rounding, bounded here by 1e-12 nats.
"""

import numpy as np
import pytest

from qentropy.catalog import bell
from qentropy.channels import (
    channel_mutual_information,
    coherent_information,
    complementary,
    purify,
    random_channel,
)
from qentropy.entropy import mutual_information_states, von_neumann_entropy
from qentropy.states import (
    DensityMatrix,
    SubsystemLayout,
    as_density,
    random_density_matrix,
    single,
)

AGREEMENT = 1e-12  # nats


def fresh_label(layout, base="R"):
    """``base``, or ``base`` with the first free numeric suffix if the layout uses it."""
    label, i = base, 2
    while label in layout.labels:
        label, i = f"{base}{i}", i + 1
    return label


def reference_mutual_information(state, channel):
    """I(B:R) of (channel x id_R) applied to the dense purification, by kron Kraus operators."""
    rho = as_density(state)
    ref = fresh_label(rho.layout)
    psi = purify(rho, reference_label=ref)
    dim_ref = psi.layout.dim_of(ref)
    joint = psi.as_density().entries
    side = channel.dim_out * dim_ref
    out = np.zeros((side, side), dtype=np.complex128)
    for k in channel.kraus_ops:
        extended = np.kron(k, np.eye(dim_ref))
        out += extended @ joint @ extended.conj().T
    rho_br = DensityMatrix(out, SubsystemLayout([("B", channel.dim_out), (ref, dim_ref)]))
    return mutual_information_states(rho_br, "B", ref)


def reference_coherent_information(state, channel):
    return reference_mutual_information(state, channel) - von_neumann_entropy(as_density(state))


# name -> input state; every one has dimension 4
INPUTS = {
    "full-rank": lambda: random_density_matrix(4, seed=3),
    "rank-2": lambda: random_density_matrix(4, rank=2, seed=4),
    "pure-matrix": lambda: random_density_matrix(4, rank=1, seed=5),
    "pure-state": lambda: bell(2),
    "diagonal-rank-3": lambda: DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]), single("A", 4)),
    "labelled-R": lambda: random_density_matrix(4, seed=6, layout=single("R", 4)),
}

# (dim_out, env_dim) of 4 -> dim_out channels, square and rectangular
SHAPES = [(4, 1), (2, 2), (3, 2), (2, 3), (4, 3), (5, 4), (1, 5), (3, 5)]


def channels_for(shape, seed):
    dim_out, env_dim = shape
    channel = random_channel(4, dim_out, env_dim, seed=seed)
    return {"channel": channel, "complement": complementary(channel)}


@pytest.mark.parametrize("shape", SHAPES, ids=[f"out{o}-env{e}" for o, e in SHAPES])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_channel_information_agrees_with_dense_kron_route(name, shape):
    state = INPUTS[name]()
    for which, channel in channels_for(shape, seed=sum(shape) + len(name)).items():
        got = channel_mutual_information(state, channel)
        assert abs(got - reference_mutual_information(state, channel)) <= AGREEMENT, which
        got = coherent_information(state, channel)
        assert abs(got - reference_coherent_information(state, channel)) <= AGREEMENT, which


def test_input_labelled_like_the_reference():
    # the dense route had to rename its reference away from the input's own R
    rho = INPUTS["labelled-R"]()
    channel = random_channel(4, 3, 2, seed=1)
    assert fresh_label(rho.layout) == "R2"
    expected = reference_mutual_information(rho, channel)
    assert abs(channel_mutual_information(rho, channel) - expected) <= AGREEMENT
    relabeled = DensityMatrix(rho.entries, single("A", 4))
    assert channel_mutual_information(relabeled, channel) == channel_mutual_information(
        rho, channel
    )


def test_factored_route_solves_no_output_sized_matrix(solve_calls):
    # input rank 2 of 4, a 4 -> 3 channel with 5 Kraus operators: the dense
    # output state would be 6 x 6; the factor route solves the input (4), the
    # 5 x 5 Gram matrix values only, and the marginals on B (3) and R (2) as
    # values-only SVDs of the factor's unfoldings, 3 x (2 * 5) and 2 x (3 * 5)
    rho = DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]), single("A", 4))
    channel = random_channel(4, 3, 5, seed=2)
    channel_mutual_information(rho, channel)
    assert solve_calls == [
        ("eigh", (4, 4), False),
        ("eigvalsh", (1, 5, 5), True),
        ("svd", (1, 3, 10), True),
        ("svd", (1, 2, 15), True),
    ]
