"""Tests for finite-rank truncation, convergence sweeps, and gap diagnostics."""

import numpy as np
import pytest

from qentropy.catalog import bell, build_state, tmsv
from qentropy.entropy import conditional_entropy, von_neumann_entropy
from qentropy.errors import (
    DegenerateTruncationError,
    PreconditionError,
    StructuralError,
)
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    as_density,
    random_density_matrix,
    single,
    tensor,
)
from qentropy.truncation import (
    PROJECTOR_MODES,
    ProjectorSequence,
    conditional_entropy_sweep,
    diagonal_schedule,
    truncate_normalize,
    truncation_diagnostics,
)


def pair_layout(da, db, labels=("A", "B")):
    return SubsystemLayout(((labels[0], da), (labels[1], db)))


def basis_ket(index, dim, layout):
    amp = np.zeros(dim)
    amp[index] = 1.0
    return PureState(amp, layout).as_density()


class TestProjectorSequence:
    def test_computational_family(self):
        seq = ProjectorSequence.computational(4)
        assert seq.dim == 4
        v = seq.isometry(2)
        assert v.shape == (4, 2)
        assert np.allclose(v.conj().T @ v, np.eye(2))
        p = seq.projector(2)
        assert np.allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_nesting_identity(self):
        seq = ProjectorSequence.computational(5)
        for m in (1, 3, 5):
            for n in (2, 4):
                got = seq.projector(m) @ seq.projector(n)
                assert np.allclose(got, seq.projector(min(m, n)), atol=1e-12)

    def test_full_rank_is_identity(self):
        seq = ProjectorSequence.computational(3)
        assert np.allclose(seq.projector(3), np.eye(3))

    def test_eigenbasis_ordering(self):
        rho = DensityMatrix(np.diag([0.1, 0.6, 0.3]), single("A", 3))
        seq = ProjectorSequence.from_state(rho)
        # leading column is the dominant eigenvector
        lead = np.abs(seq.isometry(1)[:, 0])
        assert lead[1] == pytest.approx(1.0, abs=1e-12)
        top2 = seq.projector(2)
        assert np.allclose(top2, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(StructuralError):
            ProjectorSequence(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rank_bounds(self):
        seq = ProjectorSequence.computational(3)
        with pytest.raises(PreconditionError):
            seq.isometry(0)
        with pytest.raises(PreconditionError):
            seq.isometry(4)


class TestTruncateNormalize:
    def test_full_rank_is_identity(self):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=0, layout=layout)
        step = truncate_normalize(
            rho,
            {
                "A": (2, ProjectorSequence.computational(2)),
                "B": (3, ProjectorSequence.computational(3)),
            },
        )
        assert step.lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(step.state.entries, rho.entries, atol=1e-12)
        assert step.ranks == {"A": 2, "B": 3}

    def test_bell_rank_one(self):
        rho = as_density(bell(2))
        step = truncate_normalize(
            rho,
            {
                "A": (1, ProjectorSequence.computational(2)),
                "B": (1, ProjectorSequence.computational(2)),
            },
        )
        assert step.lam == pytest.approx(0.5, abs=1e-12)
        expected = basis_ket(0, 4, rho.layout)
        assert np.allclose(step.state.entries, expected.entries, atol=1e-12)

    def test_one_sided_truncation(self):
        rho = as_density(bell(2))
        step = truncate_normalize(rho, {"A": (1, ProjectorSequence.computational(2))})
        assert step.lam == pytest.approx(0.5, abs=1e-12)
        assert step.ranks == {"A": 1}
        assert step.state.layout.labels == ("A", "B")

    def test_retained_weight_monotone_in_rank(self):
        psi = tmsv(nbar=1.0, cutoff=12)
        rho = psi.as_density()
        seq = ProjectorSequence.computational(12)
        lams = [
            truncate_normalize(rho, {"A": (r, seq), "B": (r, seq)}).lam
            for r in range(1, 13)
        ]
        assert np.all(np.diff(lams) >= -1e-15)
        assert lams[-1] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_weight_raises_with_weight(self):
        layout = pair_layout(2, 2)
        rho = basis_ket(3, 4, layout)  # |11><11|
        with pytest.raises(DegenerateTruncationError) as exc_info:
            truncate_normalize(rho, {"A": (1, ProjectorSequence.computational(2))})
        assert exc_info.value.weight == pytest.approx(0.0, abs=1e-15)

    def test_empty_projections_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(StructuralError):
            truncate_normalize(rho, {})

    def test_unknown_label_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(StructuralError):
            truncate_normalize(rho, {"Z": (1, ProjectorSequence.computational(2))})

    def test_dimension_mismatch_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(StructuralError):
            truncate_normalize(rho, {"A": (1, ProjectorSequence.computational(3))})


class TestTmsvWeightOracle:
    def test_geometric_retained_weight(self):
        # Schmidt weights of the cutoff-N two-mode squeezed state are a
        # normalized geometric sequence, so the retained weight at diagonal
        # rank r has the closed form (1 - q^r) / (1 - q^N) with q = nbar/(nbar+1)
        nbar, cutoff = 1.0, 16
        q = nbar / (nbar + 1.0)
        rho = tmsv(nbar=nbar, cutoff=cutoff).as_density()
        seq = ProjectorSequence.computational(cutoff)
        for r in (1, 2, 5, 9, 16):
            step = truncate_normalize(rho, {"A": (r, seq), "B": (r, seq)})
            expected = (1.0 - q**r) / (1.0 - q**cutoff)
            assert step.lam == pytest.approx(expected, abs=1e-12)

    def test_asymmetric_ranks_use_smaller(self):
        nbar, cutoff = 1.0, 10
        q = nbar / (nbar + 1.0)
        rho = tmsv(nbar=nbar, cutoff=cutoff).as_density()
        seq = ProjectorSequence.computational(cutoff)
        step = truncate_normalize(rho, {"A": (3, seq), "B": (7, seq)})
        expected = (1.0 - q**3) / (1.0 - q**cutoff)
        assert step.lam == pytest.approx(expected, abs=1e-12)


class TestDiagonalSchedule:
    def test_stride(self):
        assert diagonal_schedule(2, 8, stride=3) == [(2, 2), (5, 5), (8, 8)]

    def test_single_point(self):
        assert diagonal_schedule(4, 4) == [(4, 4)]

    def test_bad_bounds(self):
        with pytest.raises(PreconditionError):
            diagonal_schedule(5, 4)
        with pytest.raises(PreconditionError):
            diagonal_schedule(0, 4)


class TestConditionalEntropySweep:
    def test_each_step_solves_its_joint_state_once(self, eigh_sizes):
        # joint sizes 9, 16, 25 differ from every marginal size (3, 4, 5)
        rho = random_density_matrix(30, seed=9, layout=pair_layout(5, 6))
        schedule = [(3, 3), (4, 4), (5, 5)]
        conditional_entropy_sweep(rho, "A", "B", schedule, mode="computational")
        assert {n * k: eigh_sizes[n * k] for n, k in schedule} == {9: 1, 16: 1, 25: 1}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_state("tmsv:nbar=1,cutoff=6"),
            lambda: random_density_matrix(30, seed=9, layout=pair_layout(5, 6)),
        ],
        ids=["real-tmsv", "complex-5x6"],
    )
    def test_full_support_step_solves_joint_state_for_values_only(
        self, make, eigh_sizes, vector_solve_sizes
    ):
        rho = make()
        schedule = [(3, 3), (4, 4)]
        for mode in PROJECTOR_MODES:
            conditional_entropy_sweep(rho, "A", "B", schedule, mode=mode)
        assert {n * k: vector_solve_sizes[n * k] for n, k in schedule} == {9: 0, 16: 0}
        assert {n * k: eigh_sizes[n * k] for n, k in schedule} == {9: 2, 16: 2}

    def test_rank_deficient_step_solves_joint_state_for_values_only(
        self, eigh_sizes, vector_solve_sizes
    ):
        # truncating GHZ to |0>|00>, |1>|01> leaves trunc_A = |0><0|, rank 1 of 2;
        # support containment is read from marginal weights, so the joint state
        # is solved for its eigenvalues only
        rho = build_state("ghz:parties=3")
        (point,) = conditional_entropy_sweep(rho, "A", ("B", "C"), [(2, 2)])
        assert vector_solve_sizes[4] == 0
        assert eigh_sizes[4] == 1
        assert (point.lam, point.cond_entropy_nats, point.h_nk, point.h_tilde_nk) == (
            0.4999999999999999,
            0.0,
            0.0,
            0.6931471805599453,
        )

    def test_full_rank_point_matches_direct(self):
        layout = pair_layout(3, 4, labels=("T", "G"))
        rho = random_density_matrix(12, seed=5, layout=layout)
        direct = conditional_entropy(rho, target="T", given="G")
        for mode in PROJECTOR_MODES:
            points = conditional_entropy_sweep(
                rho, target="T", given="G", schedule=[(3, 4)], mode=mode
            )
            assert len(points) == 1
            assert points[0].lam == pytest.approx(1.0, abs=1e-10)
            assert points[0].cond_entropy_nats == pytest.approx(direct, abs=1e-10)

    def test_eigenbasis_sweep_on_small_state(self):
        layout = pair_layout(4, 4)
        rho = random_density_matrix(16, seed=6, layout=layout)
        points = conditional_entropy_sweep(
            rho, target="A", given="B", schedule=diagonal_schedule(1, 4), mode="eigenbasis"
        )
        assert [(p.rank_a, p.rank_b) for p in points] == [(1, 1), (2, 2), (3, 3), (4, 4)]
        lams = [p.lam for p in points]
        assert np.all(np.diff(lams) >= -1e-12)
        direct = conditional_entropy(rho, target="A", given="B")
        assert points[-1].cond_entropy_nats == pytest.approx(direct, abs=1e-10)

    def test_product_state_has_zero_correlation_every_step(self):
        a = random_density_matrix(3, seed=7, layout=single("A", 3))
        b = random_density_matrix(3, seed=8, layout=single("B", 3))
        rho = tensor(a, b)
        points = conditional_entropy_sweep(
            rho, target="A", given="B", schedule=diagonal_schedule(1, 3)
        )
        for p in points:
            assert not p.skipped
            assert p.h_nk == pytest.approx(0.0, abs=1e-10)

    def test_tmsv_converges_and_diff_vanishes(self):
        rho = tmsv(nbar=1.0, cutoff=14).as_density()
        base = conditional_entropy(rho, target="A", given="B")
        points = conditional_entropy_sweep(
            rho, target="A", given="B", schedule=diagonal_schedule(2, 14, stride=4)
        )
        errors = [abs(p.cond_entropy_nats - base) for p in points]
        assert np.all(np.diff(errors) <= 1e-12)
        assert errors[-1] <= 1e-10
        # Schmidt-aligned diagonal truncation renormalizes the exact marginals,
        # so both correlation terms coincide at every step
        for p in points:
            assert p.diff == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    def test_diff_is_never_negative(self, mode):
        # h_tilde_nk - h_nk is a sum of two relative entropies; its round-off
        # below zero passes the one round-off rule, like every other total
        for seed in range(20):
            rho = random_density_matrix(9, seed=seed, layout=pair_layout(3, 3))
            for p in conditional_entropy_sweep(rho, "A", "B", diagonal_schedule(1, 3), mode=mode):
                assert p.diff >= 0.0, (seed, p)

    def test_skipped_step_recorded_not_raised(self):
        layout = pair_layout(2, 2)
        rho = basis_ket(3, 4, layout)  # weight vanishes at rank 1
        points = conditional_entropy_sweep(
            rho, target="A", given="B", schedule=[(1, 1), (2, 2)]
        )
        assert points[0].skipped
        assert points[0].cond_entropy_nats is None
        assert points[0].h_nk is None
        assert points[0].lam == pytest.approx(0.0, abs=1e-15)
        assert not points[1].skipped
        assert points[1].cond_entropy_nats == pytest.approx(0.0, abs=1e-10)

    def test_grouped_labels(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=9, layout=layout)
        points = conditional_entropy_sweep(
            rho, target=("A", "C"), given="B", schedule=[(4, 2)]
        )
        direct = conditional_entropy(rho, target=("A", "C"), given="B")
        assert points[0].cond_entropy_nats == pytest.approx(direct, abs=1e-10)

    def test_schedule_validation(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(PreconditionError):
            conditional_entropy_sweep(rho, "A", "B", schedule=[])
        with pytest.raises(PreconditionError):
            conditional_entropy_sweep(rho, "A", "B", schedule=[(2, 2), (1, 1)])
        with pytest.raises(PreconditionError):
            conditional_entropy_sweep(rho, "A", "B", schedule=[(1, 1), (1, 1)])
        with pytest.raises(PreconditionError):
            conditional_entropy_sweep(rho, "A", "B", schedule=[(3, 1)])

    def test_unknown_mode_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(PreconditionError):
            conditional_entropy_sweep(rho, "A", "B", schedule=[(2, 2)], mode="fourier")


class TestTruncationDiagnostics:
    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    def test_matches_sweep_point_exactly(self, mode):
        layout = SubsystemLayout((("A", 3), ("B", 4)))
        rho = random_density_matrix(12, seed=12, layout=layout)
        points = conditional_entropy_sweep(rho, "A", "B", diagonal_schedule(1, 3), mode=mode)
        for point in points:
            n = point.rank_a
            diag = truncation_diagnostics(rho, "A", "B", n, n, mode=mode)
            assert (diag.h_nk, diag.h_tilde_nk) == (point.h_nk, point.h_tilde_nk)

    def test_solves_each_factor_once(self, eigh_sizes):
        # the marginal divergences reuse the step's four factor spectra
        rho = random_density_matrix(30, seed=9, layout=pair_layout(5, 6))
        truncation_diagnostics(rho, "A", "B", 3, 4)
        assert eigh_sizes == {3: 2, 4: 2, 12: 1}

    def test_full_rank_gap_vanishes(self):
        layout = pair_layout(3, 3)
        rho = random_density_matrix(9, seed=10, layout=layout)
        diag = truncation_diagnostics(rho, "A", "B", rank_a=3, rank_b=3)
        assert diag.diff == pytest.approx(0.0, abs=1e-10)
        assert diag.marginal_a_divergence == pytest.approx(0.0, abs=1e-10)
        assert diag.marginal_b_divergence == pytest.approx(0.0, abs=1e-10)

    def test_gap_decomposition_identity(self):
        rho = tmsv(nbar=1.5, cutoff=10).as_density()
        for r in (2, 4, 7):
            diag = truncation_diagnostics(rho, "A", "B", rank_a=r, rank_b=r)
            assert diag.residual <= 1e-8

    def test_gap_decomposition_generic_state(self):
        layout = pair_layout(4, 4)
        rho = random_density_matrix(16, seed=11, layout=layout)
        for mode in PROJECTOR_MODES:
            for r in (2, 3):
                diag = truncation_diagnostics(rho, "A", "B", rank_a=r, rank_b=r, mode=mode)
                assert diag.residual <= 1e-8
                assert diag.h_nk >= -1e-10
                assert diag.h_tilde_nk >= diag.h_nk - 1e-10

    def test_product_state_gap_is_pure_marginal_divergence(self):
        a = DensityMatrix(np.diag([0.5, 0.3, 0.2]), single("A", 3))
        b = DensityMatrix(np.diag([0.6, 0.3, 0.1]), single("B", 3))
        rho = tensor(a, b)
        diag = truncation_diagnostics(rho, "A", "B", rank_a=2, rank_b=2)
        assert diag.h_nk == pytest.approx(0.0, abs=1e-10)
        assert diag.diff == pytest.approx(
            diag.marginal_a_divergence + diag.marginal_b_divergence, abs=1e-10
        )


class TestEntropyAfterTruncation:
    def test_truncated_entropy_tracks_weight(self):
        # H of the rank-1 truncated Bell state is 0 (it is |00><00|)
        rho = as_density(bell(2))
        seq = ProjectorSequence.computational(2)
        step = truncate_normalize(rho, {"A": (1, seq), "B": (1, seq)})
        assert von_neumann_entropy(step.state) == pytest.approx(0.0, abs=1e-10)
