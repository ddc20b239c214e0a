"""Tests for finite-rank truncation, convergence sweeps, and gap diagnostics."""

from collections import Counter

import numpy as np
import pytest

from qentropy.catalog import bell, build_state, tmsv
from qentropy.entropy import conditional_entropy, von_neumann_entropy
from qentropy.errors import ParseError, PreconditionError, StructuralError
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    as_density,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
)
from qentropy.truncation import (
    PROJECTOR_MODES,
    ProjectorSequence,
    conditional_entropy_sweep,
    _bipartite,
    _step,
    diagonal_schedule,
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
        assert np.array_equal(v @ v.conj().T, np.diag([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "seq",
        [
            ProjectorSequence.computational(5),
            ProjectorSequence.from_state(random_density_matrix(5, seed=2)),
        ],
        ids=["computational", "eigenbasis"],
    )
    def test_nesting_identity(self, seq):
        # each isometry is the leading columns of every larger one, so the
        # projectors P_r = V_r V_r^dagger satisfy P_m P_n = P_min(m, n)
        for m in (1, 3, 5):
            for n in (2, 4):
                small = seq.isometry(min(m, n))
                assert np.array_equal(seq.isometry(max(m, n))[:, : small.shape[1]], small)
                p_m, p_n = (seq.isometry(r) @ seq.isometry(r).conj().T for r in (m, n))
                assert np.allclose(p_m @ p_n, small @ small.conj().T, atol=1e-12)

    def test_full_rank_is_identity(self):
        seq = ProjectorSequence.computational(3)
        assert np.array_equal(seq.isometry(3), np.eye(3))
        eigen = ProjectorSequence.from_state(random_density_matrix(3, seed=4)).isometry(3)
        assert np.allclose(eigen @ eigen.conj().T, np.eye(3), atol=1e-12)

    def test_eigenbasis_ordering(self):
        rho = DensityMatrix(np.diag([0.1, 0.6, 0.3]), single("A", 3))
        seq = ProjectorSequence.from_state(rho)
        # leading column is the dominant eigenvector
        lead = np.abs(seq.isometry(1)[:, 0])
        assert lead[1] == pytest.approx(1.0, abs=1e-12)
        top2 = seq.isometry(2)
        assert np.allclose(top2 @ top2.conj().T, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(StructuralError):
            ProjectorSequence(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rank_bounds(self):
        seq = ProjectorSequence.computational(3)
        with pytest.raises(PreconditionError):
            seq.isometry(0)
        with pytest.raises(PreconditionError):
            seq.isometry(4)

    @pytest.mark.parametrize("rank", [2.5, True, float("nan"), float("inf"), "2", None])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(ParseError):
            ProjectorSequence.computational(3).isometry(rank)

    @pytest.mark.parametrize("rank", [2.0, np.int64(2), np.float64(2.0)])
    def test_integral_rank_accepted(self, rank):
        assert ProjectorSequence.computational(3).isometry(rank).shape == (3, 2)


class TestTruncatedState:
    def test_full_rank_is_identity(self):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=0, layout=layout)
        step = _step(_bipartite(rho, "A", "B", "computational"), 2, 3)
        assert step.lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(step.joint, rho.entries, atol=1e-12)

    def test_bell_rank_one(self):
        # the rank-(1, 1) truncation of the Bell state is |00><00| with weight 1/2
        rho = as_density(bell(2))
        step = _step(_bipartite(rho, "A", "B", "computational"), 1, 1)
        assert step.lam == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(step.joint, [[1.0]], atol=1e-12)
        (point,) = conditional_entropy_sweep(rho, "A", "B", [(1, 1)])
        assert point.lam == pytest.approx(0.5, abs=1e-12)
        assert point.cond_entropy_nats == pytest.approx(0.0, abs=1e-10)

    def test_one_sided_truncation(self):
        # rank 1 on A, full rank on B, which is left untouched
        rho = as_density(bell(2))
        (point,) = conditional_entropy_sweep(rho, "A", "B", [(1, 2)])
        assert (point.rank_a, point.rank_b) == (1, 2)
        assert point.lam == pytest.approx(0.5, abs=1e-12)
        assert point.h_nk == pytest.approx(0.0, abs=1e-10)

    def test_retained_weight_monotone_in_rank(self):
        psi = tmsv(nbar=1.0, cutoff=12)
        for state in (psi, psi.as_density()):
            points = conditional_entropy_sweep(state, "A", "B", diagonal_schedule(1, 12))
            lams = [p.lam for p in points]
            assert np.all(np.diff(lams) >= -1e-15)
            assert lams[-1] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_weight_is_skipped_with_weight(self):
        layout = pair_layout(2, 2)
        rho = basis_ket(3, 4, layout)  # |11><11|
        (point,) = conditional_entropy_sweep(rho, "A", "B", [(1, 2)])
        assert point.skipped
        assert (point.h_nk, point.h_tilde_nk, point.diff) == (None, None, None)
        assert point.lam == pytest.approx(0.0, abs=1e-15)

    def test_unknown_label_rejected(self):
        rho = random_density_matrix(4, seed=1, layout=pair_layout(2, 2))
        with pytest.raises(StructuralError):
            conditional_entropy_sweep(rho, "Z", "B", [(1, 1)])


@pytest.fixture
def constructions(monkeypatch):
    """A Counter of DensityMatrix, PureState and SubsystemLayout constructions made
    from here on."""
    counts: Counter = Counter()
    for cls, method in (
        (DensityMatrix, "__post_init__"),
        (PureState, "__post_init__"),
        (SubsystemLayout, "__init__"),
    ):
        original = getattr(cls, method)

        def counted(self, *args, _cls=cls, _original=original, **kwargs):
            counts[_cls.__name__] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return counts


class TestArraysInside:
    """A sweep works on arrays: neither the split into factors nor a step builds a
    state object or a layout."""

    LAYOUT = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])
    GROUPS = [("A", "B"), (("A", "C"), "B"), ("C", "A")]

    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    @pytest.mark.parametrize("groups", GROUPS, ids=["in-order", "reordered", "rest-first"])
    @pytest.mark.parametrize("kind", ["dense", "factor"])
    def test_bipartite_and_step_construct_nothing(self, kind, groups, mode, constructions):
        if kind == "dense":
            state = random_density_matrix(12, seed=4, layout=self.LAYOUT)
        else:
            state = random_pure_state(self.LAYOUT, seed=4)
        constructions.clear()
        part = _bipartite(state, *groups, mode)
        assert part.joint.ndim == (4 if kind == "dense" else 3)
        step = _step(part, 1, 2)
        assert np.isfinite(step.h_tilde_nk)
        assert not constructions


class TestTmsvWeightOracle:
    def test_geometric_retained_weight(self):
        # Schmidt weights of the cutoff-N two-mode squeezed state are a
        # normalized geometric sequence, so the retained weight at diagonal
        # rank r has the closed form (1 - q^r) / (1 - q^N) with q = nbar/(nbar+1)
        nbar, cutoff = 1.0, 16
        q = nbar / (nbar + 1.0)
        psi = tmsv(nbar=nbar, cutoff=cutoff)
        schedule = [(r, r) for r in (1, 2, 5, 9, 16)]
        for state in (psi, psi.as_density()):
            for point in conditional_entropy_sweep(state, "A", "B", schedule):
                expected = (1.0 - q**point.rank_a) / (1.0 - q**cutoff)
                assert point.lam == pytest.approx(expected, abs=1e-12)

    def test_asymmetric_ranks_use_smaller(self):
        nbar, cutoff = 1.0, 10
        q = nbar / (nbar + 1.0)
        psi = tmsv(nbar=nbar, cutoff=cutoff)
        expected = (1.0 - q**3) / (1.0 - q**cutoff)
        for state in (psi, psi.as_density()):
            (point,) = conditional_entropy_sweep(state, "A", "B", [(3, 7)])
            assert point.lam == pytest.approx(expected, abs=1e-12)


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

    @pytest.mark.parametrize(
        "bounds",
        [(1.5, 4.9, 1.2), (1.5, 4, 1), (1, 4.9, 1), (1, 4, 1.2), (True, 4, 1), (1, 4, True),
         (float("nan"), 4, 1), (1, float("inf"), 1), (1, "4", 1)],
    )  # fmt: skip
    def test_bounds_must_be_integers(self, bounds):
        with pytest.raises(ParseError):
            diagonal_schedule(*bounds)

    def test_integral_floats_and_numpy_ints_accepted(self):
        schedule = diagonal_schedule(np.int64(2), 4.0, np.int32(1))
        assert schedule == [(2, 2), (3, 3), (4, 4)]
        assert all(type(n) is int for pair in schedule for n in pair)


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
            lambda: as_density(build_state("tmsv:nbar=1,cutoff=6")),
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
        rho = as_density(build_state("ghz:parties=3"))
        (point,) = conditional_entropy_sweep(rho, "A", ("B", "C"), [(2, 2)])
        assert vector_solve_sizes[4] == 0
        assert eigh_sizes[4] == 1
        assert (point.lam, point.cond_entropy_nats, point.h_nk, point.h_tilde_nk) == (
            0.4999999999999999,
            0.0,
            0.0,
            0.6931471805599453,
        )

    def test_factor_step_solves_only_its_tilde_marginals_in_computational_mode(
        self, eigh_sizes, vector_solve_sizes
    ):
        # the own marginals come from one values-only SVD; the tilde marginals
        # (sizes 3 and 4) are solved once each, and the joint state only as
        # its 1 x 1 Gram matrix
        psi = random_pure_state(pair_layout(5, 6), seed=3)
        conditional_entropy_sweep(psi, "A", "B", [(3, 4)], mode="computational")
        assert vector_solve_sizes == {3: 1, 4: 1}
        assert eigh_sizes == {1: 1, 3: 1, 4: 1}

    @pytest.mark.parametrize("pure", [True, False], ids=["factored", "dense"])
    def test_eigenbasis_steps_solve_no_tilde_marginal(self, pure, eigh_sizes, vector_solve_sizes):
        # the families are solved once, on the full marginals (sizes 5 and 6);
        # the steps solve no tilde marginal and nothing else with eigenvectors
        psi = random_pure_state(pair_layout(5, 6), seed=3)
        state = psi if pure else as_density(psi)
        schedule = [(2, 4), (3, 4), (4, 4)]
        conditional_entropy_sweep(state, "A", "B", schedule, mode="eigenbasis")
        assert vector_solve_sizes == {5: 1, 6: 1}
        if pure:  # each step solves its 1 x 1 Gram matrix
            assert eigh_sizes == {1: 3, 5: 1, 6: 1}
        else:  # each step solves its joint state (8, 12, 16) and its own marginals
            assert eigh_sizes == {2: 1, 3: 1, 4: 4, 5: 1, 6: 1, 8: 1, 12: 1, 16: 1}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tmsv(nbar=1.0, cutoff=30),
            lambda: as_density(build_state("tmsv:nbar=1,cutoff=8")),
        ],
        ids=["factored-cutoff-30", "dense-cutoff-8"],
    )
    def test_computational_sweep_of_tmsv_solves_nothing_with_vectors(
        self, make, vector_solve_sizes
    ):
        # tmsv's marginals are diagonal, so every tilde marginal is read off
        # its diagonal block
        state = make()
        conditional_entropy_sweep(state, "A", "B", diagonal_schedule(1, state.layout.dims[0]))
        assert vector_solve_sizes == {}

    @pytest.mark.parametrize("pure", [True, False], ids=["factored", "dense"])
    def test_eigenbasis_sweep_solves_and_rotates_once(self, pure, monkeypatch):
        # one vector solve per side, and one rotation of each factor's ket
        # (and a matrix's bra) index, however many steps follow
        psi = random_pure_state(pair_layout(5, 6), seed=3)
        state = psi if pure else as_density(psi)
        calls = []
        for name, module in (("eigh", np.linalg), ("tensordot", np)):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        counts = []
        for schedule in ([(5, 6)], diagonal_schedule(1, 5) + [(5, 6)]):
            calls.clear()
            conditional_entropy_sweep(state, "A", "B", schedule, mode="eigenbasis")
            counts.append(sorted(calls))
        rotations = 2 if pure else 4
        assert counts == [["eigh"] * 2 + ["tensordot"] * rotations] * 2

    def test_dense_step_solves_own_marginals_for_values_only(self, eigh_sizes, vector_solve_sizes):
        # own marginals (3, 4) values only; the tilde marginals, also 3 and 4,
        # once each with vectors; the joint state (12) values only
        rho = random_density_matrix(30, seed=9, layout=pair_layout(5, 6))
        conditional_entropy_sweep(rho, "A", "B", [(3, 4)], mode="computational")
        assert vector_solve_sizes == {3: 1, 4: 1}
        assert eigh_sizes == {3: 2, 4: 2, 12: 1}

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

    @pytest.mark.parametrize(
        "schedule",
        [[(2.7, 3.9)], [(1, 1), (2, 2.5)], [(True, True)], [(float("nan"), 1)], [(1, None)]],
        ids=["fractions", "late-fraction", "bools", "nan", "none"],
    )
    def test_schedule_ranks_must_be_integers(self, schedule):
        rho = random_density_matrix(16, seed=1, layout=pair_layout(4, 4))
        with pytest.raises(ParseError):
            conditional_entropy_sweep(rho, "A", "B", schedule)

    def test_integral_schedule_ranks_accepted(self):
        rho = random_density_matrix(16, seed=1, layout=pair_layout(4, 4))
        points = conditional_entropy_sweep(rho, "A", "B", [(np.int64(2), 3.0), (4.0, np.int8(4))])
        assert [(p.rank_a, p.rank_b) for p in points] == [(2, 3), (4, 4)]
        assert all(type(p.rank_a) is int and type(p.rank_b) is int for p in points)

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

    def test_solves_both_marginal_pairs_with_vectors(self, eigh_sizes, vector_solve_sizes):
        # exactly the step's solves: the joint state (12) and the own marginals
        # (3, 4) for values, the tilde marginals with vectors; each marginal
        # divergence is read off those spectra and solves nothing more
        rho = random_density_matrix(30, seed=9, layout=pair_layout(5, 6))
        truncation_diagnostics(rho, "A", "B", 3, 4)
        assert vector_solve_sizes == {3: 1, 4: 1}
        assert eigh_sizes == {3: 2, 4: 2, 12: 1}

    RANK_RULE_STATES = {
        "dense": lambda: random_density_matrix(20, seed=3, layout=pair_layout(4, 5)),
        "factor": lambda: random_pure_state(pair_layout(4, 5), seed=3),
        "schmidt": lambda: tmsv(nbar=1.0, cutoff=5),
    }

    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    @pytest.mark.parametrize("name", sorted(RANK_RULE_STATES))
    def test_impossible_ranks_follow_the_sweep_rank_rule(self, name, mode):
        # an impossible rank pair raises the sweep's error, never a number
        state = self.RANK_RULE_STATES[name]()
        dim_a, dim_b = _bipartite(state, "A", "B", mode).dims
        expected = {
            (0, 2): "ranks must be positive, got (0, 2)",
            (-1, 2): "ranks must be positive, got (-1, 2)",
            (dim_a + 1, 2): f"rank pair ({dim_a + 1}, 2) exceeds factor dimensions "
            f"({dim_a}, {dim_b})",
            (2, dim_b + 1): f"rank pair (2, {dim_b + 1}) exceeds factor dimensions "
            f"({dim_a}, {dim_b})",
        }
        for ranks, message in expected.items():
            for evaluate in (
                lambda: truncation_diagnostics(state, "A", "B", *ranks, mode=mode),
                lambda: conditional_entropy_sweep(state, "A", "B", [ranks], mode),
            ):
                with pytest.raises(PreconditionError) as raised:
                    evaluate()
                assert str(raised.value) == message

    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    @pytest.mark.parametrize("pure", [True, False], ids=["factored", "dense"])
    def test_gap_decomposition_to_rounding(self, pure, mode):
        psi = random_pure_state(pair_layout(4, 5), seed=8)
        rho = random_density_matrix(20, seed=8, layout=pair_layout(4, 5))
        for n, k in [(1, 2), (2, 2), (3, 4), (4, 3), (4, 5)]:
            diag = truncation_diagnostics(psi if pure else rho, "A", "B", n, k, mode=mode)
            assert diag.residual <= 1e-12, (n, k, diag)

    @pytest.mark.parametrize(
        "ranks", [(2.5, 2), (2, 2.5), (True, 2), (float("nan"), 2)], ids=["a", "b", "bool", "nan"]
    )
    def test_ranks_must_be_integers(self, ranks):
        rho = random_density_matrix(9, seed=10, layout=pair_layout(3, 3))
        with pytest.raises(ParseError):
            truncation_diagnostics(rho, "A", "B", *ranks)

    def test_integral_ranks_accepted(self):
        rho = random_density_matrix(9, seed=10, layout=pair_layout(3, 3))
        diag = truncation_diagnostics(rho, "A", "B", 2.0, np.int64(3))
        assert (diag.rank_a, diag.rank_b) == (2, 3)
        assert type(diag.rank_a) is int and type(diag.rank_b) is int
        assert diag == truncation_diagnostics(rho, "A", "B", 2, 3)

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
        step = _step(_bipartite(rho, "A", "B", "computational"), 1, 1)
        truncated = DensityMatrix(step.joint, pair_layout(1, 1))
        assert von_neumann_entropy(truncated) == pytest.approx(0.0, abs=1e-10)
