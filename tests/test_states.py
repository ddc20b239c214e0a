"""Tests for labeled layouts, density matrices, tensor/trace algebra, and random states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.channels import KrausChannel
from qentropy.errors import InvalidStateError, StructuralError
from qentropy.rng import generator
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    as_density,
    clamped_spectrum,
    ginibre_state,
    haar_pure_state,
    partial_trace,
    permute_subsystems,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
    validate,
)
from qentropy.tolerances import TAU_PSD
from qentropy.truncation import ProjectorSequence


def diag_state(values, layout):
    return DensityMatrix(np.diag(np.asarray(values, dtype=complex)), layout)


class TestSubsystemLayout:
    def test_basic_accessors(self):
        layout = SubsystemLayout((("A", 2), ("B", 3), ("C", 4)))
        assert layout.labels == ("A", "B", "C")
        assert layout.dims == (2, 3, 4)
        assert layout.total_dim == 24
        assert layout.dim_of("B") == 3
        assert layout.index_of("C") == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructuralError):
            SubsystemLayout((("A", 2), ("A", 3)))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(StructuralError):
            SubsystemLayout((("A", 0),))

    def test_unknown_label_rejected(self):
        layout = SubsystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(StructuralError):
            layout.dim_of("Z")

    def test_normalize_labels_returns_layout_order(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        assert layout.normalize_labels(("C", "A")) == ("A", "C")
        assert layout.normalize_labels("B") == ("B",)
        with pytest.raises(StructuralError):
            layout.normalize_labels(("A", "A"))


class TestSplit:
    LAYOUT = SubsystemLayout((("A", 2), ("B", 3), ("C", 2)))

    def test_returns_layout_order_and_rest(self):
        assert self.LAYOUT.split(("C", "A"), "B") == (("A", "C"), ("B",), ())
        assert self.LAYOUT.split("C", "A", cover=False) == (("C",), ("A",), ("B",))

    @pytest.mark.parametrize(
        "first, second, cover",
        [("A", ("A", "B"), False), ((), "B", False), ("A", "Z", False), ("A", "B", True)],
        ids=["overlap", "empty", "unknown", "uncovered"],
    )
    def test_rejected(self, first, second, cover):
        with pytest.raises(StructuralError):
            self.LAYOUT.split(first, second, cover=cover)


class TestDensityMatrix:
    def test_structure_checked_but_not_physicality(self):
        layout = single("A", 2)
        # structural ctor accepts non-physical entries; validate() is the physics gate
        dm = DensityMatrix(np.array([[2.0, 0.0], [0.0, -1.0]]), layout)
        assert dm.dim == 2
        assert dm.trace() == pytest.approx(1.0)

    def test_shape_layout_mismatch(self):
        with pytest.raises(StructuralError):
            DensityMatrix(np.eye(3) / 3, single("A", 2))

    def test_nonsquare_rejected(self):
        with pytest.raises(StructuralError):
            DensityMatrix(np.ones((2, 3)), single("A", 2))

    def test_entries_frozen(self):
        dm = random_density_matrix(2, seed=5)
        with pytest.raises((ValueError, RuntimeError)):
            dm.entries[0, 0] = 9.0


@pytest.mark.parametrize(
    "build, read",
    [
        (lambda a: DensityMatrix(a, single("A", 2)), lambda obj: obj.entries),
        (lambda a: KrausChannel([a]), lambda obj: obj.kraus_ops[0]),
        (ProjectorSequence, lambda obj: obj.basis),
    ],
    ids=["density-matrix", "kraus-channel", "projector-sequence"],
)
def test_an_object_owns_a_frozen_copy_of_its_input(build, read):
    source = np.eye(2, dtype=complex)
    obj = build(source)
    source[0, 1] = 7.0
    assert np.array_equal(read(obj), np.eye(2))
    assert not read(obj).flags.writeable


class TestPureState:
    def test_as_density_projector(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2), single("A", 2))
        rho = psi.as_density()
        assert np.allclose(rho.entries, np.full((2, 2), 0.5))
        assert psi.norm() == pytest.approx(1.0)

    def test_as_density_accepts_both_kinds(self):
        psi = random_pure_state(single("A", 3), seed=1)
        assert isinstance(as_density(psi), DensityMatrix)
        dm = random_density_matrix(3, seed=1)
        assert as_density(dm) is dm

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            PureState(np.zeros(3), single("A", 2))


class TestValidate:
    def test_good_state_passes(self):
        report = validate(random_density_matrix(4, seed=0))
        assert report.ok
        assert bool(report)
        assert report.violations == ()

    def test_negative_eigenvalue_reported_with_magnitude(self):
        bad = diag_state([1.2, -0.2], single("A", 2))
        report = validate(bad)
        assert not report.ok
        names = {v.invariant for v in report.violations}
        assert "positive_semidefinite" in names
        (psd,) = [v for v in report.violations if v.invariant == "positive_semidefinite"]
        assert psd.magnitude == pytest.approx(0.2, abs=1e-12)
        assert "positive_semidefinite" in report.describe()

    def test_trace_violation(self):
        bad = diag_state([0.6, 0.6], single("A", 2))
        report = validate(bad)
        assert any(v.invariant == "unit_trace" for v in report.violations)

    def test_non_finite_entries_reported(self):
        entries = np.diag([np.nan, 0.5]).astype(complex)
        entries[0, 1] = np.inf
        report = validate(DensityMatrix(entries, single("A", 2)))
        assert not report.ok
        assert [(v.invariant, v.magnitude) for v in report.violations] == [("finite", 2.0)]

    def test_hermiticity_violation(self):
        layout = single("A", 2)
        bad = DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]), layout)
        report = validate(bad)
        assert any(v.invariant == "hermitian" for v in report.violations)

    def test_random_states_valid_across_seeds(self):
        for seed in range(300):
            assert validate(random_density_matrix(3, seed=seed)).ok

    @pytest.mark.parametrize("lowest", [-2.0, -0.75, -0.25, 0.0])
    def test_psd_verdict_and_defect_match_the_eigensolve(self, lowest, eigh_sizes):
        # a unit-trace state whose lowest eigenvalue is lowest * TAU_PSD; the
        # Cholesky certificate settles the two upper cases without an eigensolve
        n = 12
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        low = lowest * TAU_PSD
        w = np.concatenate([[low], rng.dirichlet(np.ones(n - 1)) * (1 - low)])
        m = (q * w) @ q.conj().T
        reference = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
        assert reference == pytest.approx(low, abs=1e-14)
        eigh_sizes.clear()
        report = validate(DensityMatrix(m, single("A", n)))
        expected = [("positive_semidefinite", -reference)] if reference < -TAU_PSD else []
        assert [(v.invariant, v.magnitude) for v in report.violations] == expected
        assert sum(eigh_sizes.values()) == (1 if lowest < -0.5 else 0)


class TestClampedSpectrum:
    def test_small_negatives_clamped(self):
        dm = diag_state([1.0 + 5e-10, -5e-10], single("A", 2))
        w, u = clamped_spectrum(dm)
        assert w.min() >= 0.0
        assert u.shape == (2, 2)

    def test_large_negative_raises(self):
        dm = diag_state([1.2, -0.2], single("A", 2))
        with pytest.raises(InvalidStateError):
            clamped_spectrum(dm)

    def test_ascending_order(self):
        dm = diag_state([0.7, 0.1, 0.2], single("A", 3))
        w, _ = clamped_spectrum(dm)
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("real", [True, False])
    def test_real_path_matches_complex_solve(self, real):
        for seed in range(5):
            rho = random_density_matrix(12, seed=seed)
            if real:  # the real part of a state is a state
                rho = DensityMatrix(rho.entries.real, rho.layout)
            sym = (rho.entries + rho.entries.conj().T) / 2.0
            w_ref = np.maximum(np.linalg.eigh(sym.astype(np.complex128))[0], 0.0)
            w, u = clamped_spectrum(rho)
            assert np.isrealobj(u) == real
            assert np.max(np.abs(w - w_ref)) <= 1e-12
            assert np.max(np.abs((u * w) @ u.conj().T - sym)) <= 1e-12
            w_only, none = clamped_spectrum(rho, vectors=False)
            assert none is None
            assert np.max(np.abs(w_only - w_ref)) <= 1e-12


class TestTensor:
    def test_hand_worked_diagonal_product(self):
        a = diag_state([0.5, 0.5], single("A", 2))
        b = diag_state([0.25, 0.75], single("B", 2))
        prod = tensor(a, b)
        assert prod.layout.labels == ("A", "B")
        assert np.allclose(prod.entries, np.diag([0.125, 0.375, 0.125, 0.375]))

    def test_matches_kron(self):
        a = random_density_matrix(2, seed=3, layout=single("A", 2))
        b = random_density_matrix(3, seed=4, layout=single("B", 3))
        prod = tensor(a, b)
        assert np.allclose(prod.entries, np.kron(a.entries, b.entries))

    def test_label_collision_rejected(self):
        a = random_density_matrix(2, seed=3, layout=single("A", 2))
        with pytest.raises(StructuralError):
            tensor(a, random_density_matrix(2, seed=5, layout=single("A", 2)))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        amp = np.zeros(4)
        amp[0] = amp[3] = 1 / np.sqrt(2)
        layout = SubsystemLayout((("A", 2), ("B", 2)))
        rho = PureState(amp, layout).as_density()
        red = partial_trace(rho, keep=("A",))
        assert np.allclose(red.entries, np.eye(2) / 2)

    def test_product_state_recovers_factor(self):
        a = random_density_matrix(2, seed=7, layout=single("A", 2))
        b = random_density_matrix(3, seed=8, layout=single("B", 3))
        red = partial_trace(tensor(a, b), keep=("A",))
        assert np.allclose(red.entries, a.entries, atol=1e-14)

    def test_against_explicit_index_sum(self):
        # brute-force oracle: (tr_B rho)[i,k] = sum_j rho[(i,j),(k,j)]
        layout = SubsystemLayout((("A", 2), ("B", 3)))
        rho = random_density_matrix(6, seed=11, layout=layout)
        expected = np.zeros((2, 2), dtype=complex)
        full = rho.entries.reshape(2, 3, 2, 3)
        for i in range(2):
            for k in range(2):
                for j in range(3):
                    expected[i, k] += full[i, j, k, j]
        red = partial_trace(rho, keep=("A",))
        assert np.allclose(red.entries, expected, atol=1e-14)

    def test_keep_preserves_layout_order(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=13, layout=layout)
        red = partial_trace(rho, keep=("C", "A"))
        assert red.layout.labels == ("A", "C")
        # oracle: permute to (A, C, B) then sum the explicit double index
        perm = permute_subsystems(rho, ("A", "C", "B"))
        full = perm.entries.reshape(4, 2, 4, 2)
        expected = np.einsum("ajbj->ab", full)
        assert np.allclose(red.entries, expected, atol=1e-14)

    def test_composition_matches_single_shot(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=17, layout=layout)
        two_step = partial_trace(partial_trace(rho, keep=("A", "B")), keep=("A",))
        one_step = partial_trace(rho, keep=("A",))
        assert np.allclose(two_step.entries, one_step.entries, atol=1e-14)

    def test_trace_preserved(self):
        layout = SubsystemLayout((("A", 3), ("B", 4)))
        rho = random_density_matrix(12, seed=19, layout=layout)
        red = partial_trace(rho, keep=("B",))
        assert red.trace() == pytest.approx(1.0, abs=1e-12)

    def test_keep_everything_is_identity(self):
        layout = SubsystemLayout((("A", 2), ("B", 3)))
        rho = random_density_matrix(6, seed=23, layout=layout)
        red = partial_trace(rho, keep=("A", "B"))
        assert np.allclose(red.entries, rho.entries)

    def test_empty_keep_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=SubsystemLayout((("A", 2), ("B", 2))))
        with pytest.raises(StructuralError):
            partial_trace(rho, keep=())

    def test_unknown_label_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=SubsystemLayout((("A", 2), ("B", 2))))
        with pytest.raises(StructuralError):
            partial_trace(rho, keep=("Z",))


class TestPermuteSubsystems:
    def test_round_trip(self):
        layout = SubsystemLayout((("A", 2), ("B", 3), ("C", 2)))
        rho = random_density_matrix(12, seed=29, layout=layout)
        swapped = permute_subsystems(rho, ("C", "A", "B"))
        assert swapped.layout.labels == ("C", "A", "B")
        back = permute_subsystems(swapped, ("A", "B", "C"))
        assert np.allclose(back.entries, rho.entries, atol=1e-14)

    def test_swap_matches_kron_on_product(self):
        a = random_density_matrix(2, seed=31, layout=single("A", 2))
        b = random_density_matrix(3, seed=37, layout=single("B", 3))
        swapped = permute_subsystems(tensor(a, b), ("B", "A"))
        assert np.allclose(swapped.entries, np.kron(b.entries, a.entries), atol=1e-14)

    def test_partial_label_list_rejected(self):
        layout = SubsystemLayout((("A", 2), ("B", 2)))
        rho = random_density_matrix(4, seed=2, layout=layout)
        with pytest.raises(StructuralError):
            permute_subsystems(rho, ("A",))


class TestRandomStates:
    def test_density_deterministic(self):
        a = random_density_matrix(5, seed=42)
        b = random_density_matrix(5, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_density_seed_sensitivity(self):
        a = random_density_matrix(5, seed=42)
        b = random_density_matrix(5, seed=43)
        assert not np.allclose(a.entries, b.entries)

    def test_rank_control(self):
        low = random_density_matrix(4, rank=1, seed=3)
        w = np.linalg.eigvalsh(low.entries)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(w[:-1]) < 1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(StructuralError):
            random_density_matrix(3, rank=4)
        with pytest.raises(StructuralError):
            random_density_matrix(3, rank=0)

    def test_full_rank_generic(self):
        rho = random_density_matrix(4, seed=6)
        w = np.linalg.eigvalsh(rho.entries)
        assert w.min() > 1e-8

    def test_pure_state_normalized_across_seeds(self):
        layout = single("A", 4)
        for seed in range(100):
            psi = random_pure_state(layout, seed=seed)
            assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_phase_convention(self):
        # first component with magnitude above threshold is real positive
        psi = random_pure_state(single("A", 6), seed=9)
        amps = psi.amplitudes
        first = amps[np.abs(amps) > 1e-12][0]
        assert abs(first.imag) < 1e-12
        assert first.real > 0

    def test_generator_level_helpers_consume_stream(self):
        rng = generator(0)
        first = ginibre_state(rng, single("A", 3))
        second = ginibre_state(rng, single("A", 3))
        assert not np.allclose(first.entries, second.entries)
        rng2 = generator(0)
        psi = haar_pure_state(rng2, single("A", 3))
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    da=st.integers(min_value=1, max_value=3),
    db=st.integers(min_value=1, max_value=3),
)
def test_partial_trace_inverts_tensor(seed, da, db):
    a = random_density_matrix(da, seed=seed, layout=single("A", da))
    b = random_density_matrix(db, seed=seed + 1, layout=single("B", db))
    prod = tensor(a, b)
    assert np.allclose(partial_trace(prod, keep=("A",)).entries, a.entries, atol=1e-13)
    assert np.allclose(partial_trace(prod, keep=("B",)).entries, b.entries, atol=1e-13)
