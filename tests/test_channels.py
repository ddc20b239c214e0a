"""Tests for Kraus channels, Stinespring dilation, purification, and channel information."""

import numpy as np
import pytest

from qentropy.catalog import bell, ghz
from qentropy.channels import (
    KrausChannel,
    channel_mutual_information,
    coherent_information,
    complementary,
    conditional_entropy_via_coherent_info,
    purify,
    random_channel,
    stinespring,
    trace_out_channel,
    validate_channel,
)
from qentropy.entropy import (
    conditional_entropy,
    mutual_information_states,
    von_neumann_entropy,
)
from qentropy.errors import InvalidChannelError, ParseError, PreconditionError, StructuralError
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    as_density,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
    validate,
)

LN2 = np.log(2.0)
LAYOUT_2_3_4 = SubsystemLayout((("A", 2), ("B", 3), ("C", 4)))

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def identity_channel(dim):
    return KrausChannel([np.eye(dim, dtype=complex)])


def dephasing_channel(dim=2):
    ops = []
    for j in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[j, j] = 1.0
        ops.append(k)
    return KrausChannel(ops)


def depolarizing_channel(p):
    return KrausChannel(
        [
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            np.sqrt(p / 4) * PAULI_X,
            np.sqrt(p / 4) * PAULI_Y,
            np.sqrt(p / 4) * PAULI_Z,
        ]
    )


def erase_to_ground(dim):
    # K_i = |0><i|: every input collapses to the ground projector
    ops = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[0, i] = 1.0
        ops.append(k)
    return KrausChannel(ops)


def maximally_mixed(dim, label="A"):
    return DensityMatrix(np.eye(dim) / dim, single(label, dim))


class TestKrausChannel:
    def test_dims_and_env(self):
        ch = depolarizing_channel(0.3)
        assert ch.dim_in == 2
        assert ch.dim_out == 2
        assert ch.env_dim == 4
        assert ch.completeness_defect() <= 1e-12

    def test_mixed_shapes_rejected(self):
        with pytest.raises(StructuralError):
            KrausChannel([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            KrausChannel([])

    @pytest.mark.parametrize("kind", ["list", "generator", "array"])
    def test_operators_are_one_frozen_array(self, kind):
        ops = np.stack([np.eye(3), np.diag([1.0, 0.0, 0.0])])
        given = {"list": list(ops), "generator": (k for k in ops), "array": ops}[kind]
        ch = KrausChannel(given)
        assert isinstance(ch.kraus_ops, np.ndarray)
        assert ch.kraus_ops.dtype == np.complex128 and ch.kraus_ops.shape == (2, 3, 3)
        assert not ch.kraus_ops.flags.writeable
        assert np.array_equal(ch.kraus_ops, ops)
        assert (ch.env_dim, ch.dim_out, ch.dim_in) == (2, 3, 3)
        assert len(ch.kraus_ops) == 2 and np.array_equal(ch.kraus_ops[1], ops[1])

    def test_a_stack_is_one_array_with_its_stack_axis(self):
        channels = [random_channel(3, 2, 2, seed=seed) for seed in range(4)]
        stack = KrausChannel(np.stack([c.kraus_ops for c in channels], axis=1))
        assert stack.kraus_ops.shape == (2, 4, 2, 3)
        assert (stack.env_dim, stack.dim_out, stack.dim_in) == (2, 2, 3)
        comp = complementary(stack)
        assert comp.kraus_ops.shape == (2, 4, 2, 3)  # (out, N, env, in)
        rho = random_density_matrix(3, seed=5)
        out = stack.apply(rho)
        for row, single_channel in enumerate(channels):
            assert np.array_equal(comp.kraus_ops[:, row], complementary(single_channel).kraus_ops)
            assert np.allclose(out.entries[row], single_channel.apply(rho).entries, atol=1e-14)

    def test_rectangular_kraus(self):
        # isometry embedding a qubit into a qutrit
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = v[1, 1] = 1.0
        ch = KrausChannel([v])
        assert ch.dim_in == 2
        assert ch.dim_out == 3
        out = ch.apply(random_density_matrix(2, seed=0))
        assert validate(out).ok

    def test_validate_flags_non_trace_preserving(self):
        ch = KrausChannel([0.5 * np.eye(2)])
        report = validate_channel(ch)
        assert not report.ok
        assert any(v.invariant == "trace_preserving" for v in report.violations)

    def test_apply_depolarizing_formula(self):
        rho = random_density_matrix(2, seed=4)
        for p in (0.0, 0.37, 1.0):
            out = depolarizing_channel(p).apply(rho)
            expected = (1 - p) * rho.entries + p * np.eye(2) / 2
            assert np.allclose(out.entries, expected, atol=1e-12)

    def test_apply_output_label(self):
        out = identity_channel(2).apply(random_density_matrix(2, seed=1), out_label="Q")
        assert out.layout.labels == ("Q",)

    def test_apply_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            identity_channel(2).apply(random_density_matrix(3, seed=0))


class TestStinespring:
    def test_isometry_on_random_channels(self):
        for seed in range(20):
            ch = random_channel(3, 2, 4, seed=seed)
            v = stinespring(ch)
            assert v.shape == (2 * 4, 3)
            assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_identity_channel_appends_ground_env(self):
        v = stinespring(identity_channel(3))
        assert np.allclose(v, np.eye(3))

    def test_dephasing_copies_basis(self):
        v = stinespring(dephasing_channel(2))
        # V|a> = |a>|a> with the environment in the trailing slot
        for a in range(2):
            col = v[:, a]
            expected = np.zeros(4)
            expected[a * 2 + a] = 1.0
            assert np.allclose(col, expected)

    def test_dilation_reproduces_channel(self):
        ch = random_channel(2, 3, 2, seed=5)
        rho = random_density_matrix(2, seed=6)
        v = stinespring(ch)
        joint = (v @ rho.entries @ v.conj().T).reshape(3, 2, 3, 2)
        out_direct = ch.apply(rho).entries
        assert np.allclose(np.einsum("bjcj->bc", joint), out_direct, atol=1e-10)

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(InvalidChannelError):
            stinespring(KrausChannel([0.5 * np.eye(2)]))


class TestComplementary:
    def test_identity_has_constant_environment(self):
        comp = complementary(identity_channel(2))
        assert comp.dim_out == 1
        out = comp.apply(random_density_matrix(2, seed=2))
        assert np.allclose(out.entries, [[1.0]], atol=1e-12)

    def test_dephasing_complement_is_classical_copy(self):
        comp = complementary(dephasing_channel(2))
        rho = random_density_matrix(2, seed=3)
        out = comp.apply(rho)
        assert np.allclose(out.entries, np.diag(np.diag(rho.entries)), atol=1e-12)

    def test_matches_environment_of_dilation(self):
        ch = random_channel(3, 2, 3, seed=9)
        rho = random_density_matrix(3, seed=10)
        v = stinespring(ch)
        joint = (v @ rho.entries @ v.conj().T).reshape(2, 3, 2, 3)
        env_direct = np.einsum("bjbk->jk", joint)
        out = complementary(ch).apply(rho)
        assert np.allclose(out.entries, env_direct, atol=1e-10)


class TestTraceOutChannel:
    def test_matches_partial_trace(self):
        layout = SubsystemLayout((("A", 2), ("B", 3), ("C", 2)))
        rho = random_density_matrix(12, seed=11, layout=layout)
        for keep in (("A",), ("B",), ("A", "C")):
            ch = trace_out_channel(layout, keep=keep)
            direct = partial_trace(rho, keep=keep)
            assert np.allclose(ch.apply(rho).entries, direct.entries, atol=1e-12)

    def test_kraus_operators_follow_the_index_rule(self):
        # |a, b, c> has row-major index 6a + 2b + c; K_b sends it to |a, c>, index 2a + c
        layout = SubsystemLayout((("A", 2), ("B", 3), ("C", 2)))
        ch = trace_out_channel(layout, keep=("A", "C"))
        assert ch.env_dim == 3
        for b, kraus in enumerate(ch.kraus_ops):
            expected = np.zeros((4, 12))
            for a in range(2):
                for c in range(2):
                    expected[2 * a + c, 6 * a + 2 * b + c] = 1.0
            assert np.array_equal(kraus, expected)

    def test_is_trace_preserving(self):
        layout = SubsystemLayout((("A", 2), ("B", 4)))
        ch = trace_out_channel(layout, keep=("A",))
        assert ch.completeness_defect() <= 1e-12
        assert ch.env_dim == 4

    def test_must_trace_something(self):
        layout = SubsystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(StructuralError):
            trace_out_channel(layout, keep=("A", "B"))


class TestPurify:
    def test_round_trip(self):
        for seed in range(20):
            rho = random_density_matrix(4, seed=seed)
            psi = purify(rho)
            joint = psi.as_density()
            keep = joint.layout.labels[:-1]
            back = partial_trace(joint, keep=keep)
            assert np.allclose(back.entries, rho.entries, atol=1e-9)

    def test_reference_dim_is_rank(self):
        rho = random_density_matrix(4, rank=3, seed=7)
        psi = purify(rho)
        assert psi.layout.dims[-1] == 3

    def test_pure_input_gets_trivial_reference(self):
        rho = random_density_matrix(5, rank=1, seed=8)
        psi = purify(rho)
        assert psi.layout.dims[-1] == 1

    def test_maximally_mixed_purifies_to_maximally_entangled(self):
        rho = maximally_mixed(2)
        psi = purify(rho, reference_label="R")
        joint = psi.as_density()
        assert np.allclose(partial_trace(joint, keep=("R",)).entries, np.eye(2) / 2, atol=1e-12)
        assert mutual_information_states(joint, "A", "R") == pytest.approx(2 * LN2, abs=1e-10)

    def test_preserves_composite_layout(self):
        layout = SubsystemLayout((("A", 2), ("B", 2)))
        rho = random_density_matrix(4, seed=9, layout=layout)
        psi = purify(rho)
        assert psi.layout.labels[:2] == ("A", "B")
        assert len(psi.layout.labels) == 3

    def test_deterministic(self):
        rho = random_density_matrix(3, seed=21)
        assert np.array_equal(purify(rho).amplitudes, purify(rho).amplitudes)

    def test_label_collision_rejected(self):
        rho = random_density_matrix(2, seed=0, layout=single("R", 2))
        with pytest.raises(StructuralError):
            purify(rho, reference_label="R")

    def test_zero_state_rejected(self):
        zero = DensityMatrix(np.zeros((2, 2)), single("A", 2))
        with pytest.raises(PreconditionError):
            purify(zero)


class TestPureInput:
    # a pure input is its own purification: its amplitudes as a (D, 1) column

    @pytest.mark.parametrize("measure", [channel_mutual_information, coherent_information])
    def test_agrees_with_the_density_route(self, measure):
        for seed in range(10):
            psi = random_pure_state(single("A", 4), seed=seed)
            channel = random_channel(4, 3, 2, seed=seed + 20)
            assert abs(measure(psi, channel) - measure(psi.as_density(), channel)) <= 1e-12

    def test_bell_pair_is_never_densified(self, solve_calls):
        # one Kraus pair on the 4-dimensional Bell pair: the 2 x 2 Gram matrix,
        # values only, and the two unfoldings' SVDs, (3, 2) and (1, 6)
        channel = random_channel(4, 3, 2, seed=1)
        value = channel_mutual_information(bell(2), channel)
        assert [(name, shape) for name, shape, _ in solve_calls] == [
            ("eigvalsh", (2, 2)),
            ("svd", (3, 2)),
            ("svd", (1, 6)),
        ]
        assert abs(value - channel_mutual_information(as_density(bell(2)), channel)) <= 1e-12

    def test_coherent_information_subtracts_an_exact_zero(self):
        psi = random_pure_state(single("A", 3), seed=2)
        channel = random_channel(3, 3, 2, seed=4)
        assert coherent_information(psi, channel) == channel_mutual_information(psi, channel)

    def test_stack_matches_its_rows(self):
        layout = single("A", 3)
        rows = [random_pure_state(layout, seed=seed) for seed in range(3)]
        stack = PureState(np.stack([row.amplitudes for row in rows]), layout)
        channel = random_channel(3, 2, 2, seed=5)
        assert list(coherent_information(stack, channel)) == [
            coherent_information(row, channel) for row in rows
        ]

    def test_zero_input_rejected(self):
        zero = PureState(np.zeros(2), single("A", 2))
        with pytest.raises(PreconditionError, match="cannot purify the zero matrix"):
            channel_mutual_information(zero, identity_channel(2))


class TestChannelMutualInformation:
    def test_identity_on_maximally_mixed(self):
        val = channel_mutual_information(maximally_mixed(2), identity_channel(2))
        assert val == pytest.approx(2 * LN2, abs=1e-9)

    def test_pure_input_zero(self):
        rho = random_density_matrix(2, rank=1, seed=3)
        val = channel_mutual_information(rho, random_channel(2, 2, 2, seed=4))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_erasing_channel_zero(self):
        val = channel_mutual_information(maximally_mixed(3), erase_to_ground(3))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative_and_bounded(self):
        for seed in range(20):
            rho = random_density_matrix(3, seed=seed)
            ch = random_channel(3, 3, 2, seed=seed + 100)
            val = channel_mutual_information(rho, ch)
            assert -1e-9 <= val <= 2 * np.log(3) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            channel_mutual_information(maximally_mixed(3), identity_channel(2))


class TestCoherentInformation:
    def test_identity_returns_input_entropy(self):
        rho = random_density_matrix(3, seed=5)
        val = coherent_information(rho, identity_channel(3))
        assert val == pytest.approx(von_neumann_entropy(rho), abs=1e-9)

    def test_dephasing_on_maximally_mixed_zero(self):
        val = coherent_information(maximally_mixed(2), dephasing_channel(2))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_input_entropy(self):
        for seed in range(30):
            rho = random_density_matrix(3, seed=seed)
            ch = random_channel(3, 2, 3, seed=seed + 50)
            val = coherent_information(rho, ch)
            h = von_neumann_entropy(rho)
            assert -h - 1e-8 <= val <= h + 1e-8

    def test_solves_its_input_once(self, eigh_sizes):
        # rank 2 of 4 and a 4 -> 3 channel with two Kraus operators: the other
        # solves are the 2 x 2 Gram matrix, values only, and the SVDs that give
        # the marginal spectra on B and R
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0, 0.0]), single("A", 4))
        ch = random_channel(4, 3, 2, seed=8)
        val = coherent_information(rho, ch)
        assert eigh_sizes[4] == 1
        assert val == channel_mutual_information(rho, ch) - von_neumann_entropy(rho)

    def test_duality_with_complement(self):
        for seed in range(20):
            rho = random_density_matrix(3, seed=seed)
            ch = random_channel(3, 3, 3, seed=seed + 200)
            total = coherent_information(rho, ch) + coherent_information(rho, complementary(ch))
            assert total == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("measure", [channel_mutual_information, coherent_information])
class TestNonTracePreservingChannel:
    # the output factor is renormalized, so a channel that loses trace would
    # read as the trace-preserving channel it is a multiple of
    def test_rejected(self, measure):
        rho = random_density_matrix(2, seed=1)
        with pytest.raises(InvalidChannelError, match=r"trace_preserving \(defect 7\.500e-01\)"):
            measure(rho, KrausChannel([0.5 * np.eye(2)]))

    def test_pure_input_rejected(self, measure):
        psi = random_pure_state(single("A", 2), seed=1)
        with pytest.raises(InvalidChannelError, match=r"trace_preserving \(defect 7\.500e-01\)"):
            measure(psi, KrausChannel([0.5 * np.eye(2)]))

    def test_stack_with_one_bad_row_rejected(self, measure):
        good = random_channel(2, 2, 2, seed=3)
        bad = KrausChannel([0.5 * k for k in good.kraus_ops])
        rows = [random_density_matrix(2, seed=seed).entries for seed in range(3)]
        rho = DensityMatrix(np.stack(rows), single("A", 2))
        goods = KrausChannel(np.stack([good.kraus_ops] * 3, axis=1))
        assert measure(rho, goods).shape == (3,)
        stack = KrausChannel(np.stack([good.kraus_ops, bad.kraus_ops, good.kraus_ops], axis=1))
        with pytest.raises(InvalidChannelError):
            measure(rho, stack)


class TestConditionalEntropyViaCoherentInfo:
    def test_ghz_conditional_entropy_zero(self):
        psi = ghz(parties=3, dim=2)
        val = conditional_entropy_via_coherent_info(psi, target="C", given="A")
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_product_pure_gives_zero(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        amps = np.zeros(8)
        amps[0] = 1.0
        rho = DensityMatrix(np.outer(amps, amps), layout)
        val = conditional_entropy_via_coherent_info(rho, target="C", given="A")
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_direct_route_on_random_pures(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        for seed in range(30):
            psi = random_pure_state(layout, seed=seed)
            rho = psi.as_density()
            via_channel = conditional_entropy_via_coherent_info(rho, target="C", given="A")
            direct = conditional_entropy(
                partial_trace(rho, keep=("A", "C")), target="C", given="A"
            )
            assert via_channel == pytest.approx(direct, abs=1e-7)

    def test_grouped_labels(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2), ("D", 2)))
        psi = random_pure_state(layout, seed=31)
        rho = psi.as_density()
        via_channel = conditional_entropy_via_coherent_info(rho, target=("C", "D"), given="A")
        direct = conditional_entropy(
            partial_trace(rho, keep=("A", "C", "D")), target=("C", "D"), given="A"
        )
        assert via_channel == pytest.approx(direct, abs=1e-7)

    def test_pure_state_solves_no_matrix_of_its_dimension(self, eigh_sizes):
        # the pure state lives on 24 dimensions; its purity is read off its norm
        # and its A x B marginal is reduced from its amplitudes
        psi = random_pure_state(LAYOUT_2_3_4, seed=3)
        conditional_entropy_via_coherent_info(psi, target="C", given="A")
        assert eigh_sizes[24] == 0

    def test_density_input_gets_one_values_only_purity_solve(
        self, eigh_sizes, vector_solve_sizes
    ):
        # a 24 x 24 density matrix: only its largest eigenvalue is read
        rho = random_pure_state(LAYOUT_2_3_4, seed=3).as_density()
        conditional_entropy_via_coherent_info(rho, target="C", given="A")
        assert eigh_sizes[24] == 1
        assert vector_solve_sizes[24] == 0

    def test_pure_and_density_inputs_agree(self):
        for seed in range(10):
            psi = random_pure_state(LAYOUT_2_3_4, seed=seed)
            pure = conditional_entropy_via_coherent_info(psi, target="C", given="A")
            dense = conditional_entropy_via_coherent_info(psi.as_density(), "C", "A")
            assert abs(pure - dense) <= 1e-12

    @pytest.mark.parametrize("squared_norm", [0.9, 1.1])
    def test_pure_state_off_unit_norm_rejected(self, squared_norm):
        psi = random_pure_state(LAYOUT_2_3_4, seed=3)
        scaled = PureState(np.sqrt(squared_norm) * psi.amplitudes, psi.layout)
        with pytest.raises(PreconditionError, match=f"squared norm is {squared_norm:.12f}"):
            conditional_entropy_via_coherent_info(scaled, target="C", given="A")

    def test_stack_with_one_short_row_rejected(self):
        psi = random_pure_state(LAYOUT_2_3_4, seed=3).amplitudes
        stack = PureState(np.stack([psi, np.sqrt(0.9) * psi, psi]), LAYOUT_2_3_4)
        with pytest.raises(PreconditionError, match=r"squared norm is 0\.9000"):
            conditional_entropy_via_coherent_info(stack, target="C", given="A")

    def test_density_off_unit_trace_rejected(self):
        # 1.5 rho of a pure rho has largest eigenvalue 1.5, above 1 - TAU_PURE
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_pure_state(layout, seed=0).as_density()
        scaled = DensityMatrix(1.5 * rho.entries, layout)
        with pytest.raises(PreconditionError, match=r"trace is 1\.5000"):
            conditional_entropy_via_coherent_info(scaled, target="C", given="A")

    def test_mixed_state_rejected(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=1, layout=layout)
        with pytest.raises(PreconditionError):
            conditional_entropy_via_coherent_info(rho, target="C", given="A")

    def test_needs_leftover_subsystem(self):
        rho = as_density(bell(2))
        with pytest.raises(PreconditionError):
            conditional_entropy_via_coherent_info(rho, target="A", given="B")

    def test_overlap_rejected(self):
        psi = ghz(parties=3, dim=2)
        with pytest.raises(StructuralError):
            conditional_entropy_via_coherent_info(psi, target="C", given="C")


class TestRandomChannel:
    def test_deterministic(self):
        a = random_channel(3, 2, 2, seed=7)
        b = random_channel(3, 2, 2, seed=7)
        for ka, kb in zip(a.kraus_ops, b.kraus_ops):
            assert np.array_equal(ka, kb)

    def test_trace_preserving_across_seeds(self):
        for seed in range(50):
            ch = random_channel(2, 3, 2, seed=seed)
            assert ch.completeness_defect() <= 1e-10

    def test_env_dim_one_is_unitary(self):
        ch = random_channel(3, 3, 1, seed=11)
        assert ch.env_dim == 1
        (k,) = ch.kraus_ops
        assert np.allclose(k.conj().T @ k, np.eye(3), atol=1e-10)
        assert np.allclose(k @ k.conj().T, np.eye(3), atol=1e-10)

    def test_dimensions_follow_the_integer_rule(self):
        ch = random_channel(np.int64(3), 2.0, np.int32(2), seed=7)
        assert (ch.dim_in, ch.dim_out, ch.env_dim) == (3, 2, 2)
        for dims in ((2.9, 2, 2), (2, 2.5, 2), (2, 2, 2.5), (True, 2, 2)):
            with pytest.raises(ParseError):
                random_channel(*dims, seed=0)

    def test_too_small_dilation_rejected(self):
        with pytest.raises(StructuralError):
            random_channel(4, 2, 1, seed=0)

    def test_output_states_valid(self):
        rho = random_density_matrix(3, seed=13)
        for seed in range(20):
            out = random_channel(3, 4, 2, seed=seed).apply(rho)
            assert validate(out).ok
