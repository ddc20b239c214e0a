"""Tests for entropic quantities: von Neumann, relative, conditional, mutual information."""

import math

import numpy as np
import pytest

from qentropy.catalog import bell, build_state, classical_correlated, ghz
from qentropy.channels import conditional_entropy_via_coherent_info
from qentropy.entropy import (
    _rounded,
    _spectra_divergence,
    conditional_entropy,
    conditional_entropy_standard,
    min_supported_eigenvalue,
    mutual_information_states,
    nats_to_bits,
    relative_entropy,
    von_neumann_entropy,
)
from qentropy.errors import DegenerateTruncationError, PreconditionError, StructuralError
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    clamped_spectrum,
    partial_trace,
    permute_subsystems,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
    validate,
)
from qentropy.tolerances import NEG_CLAMP
from qentropy.truncation import PROJECTOR_MODES, conditional_entropy_sweep, truncation_diagnostics

LN2 = np.log(2.0)


def diag_state(values, layout):
    return DensityMatrix(np.diag(np.asarray(values, dtype=complex)), layout)


def pair_layout(da, db):
    return SubsystemLayout((("A", da), ("C", db)))


def vs_product(rho, first, second):
    """H(rho || first x second) by the spectra divergence, with the weights of
    rho's marginals on each factor's eigenvectors; rho's subsystems are
    first's followed by second's."""
    args = []
    for factor in (first, second):
        w, u = clamped_spectrum(factor)
        red = partial_trace(rho, factor.layout.labels).entries
        args += [np.einsum("ia,ij,ja->a", u.conj(), red, u).real, w]
    return _spectra_divergence(clamped_spectrum(rho)[0], *args)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self, solve_calls):
        # exactly 0.0, complex amplitudes too, with no solve: a stack gives a
        # 0.0 per row
        layout = single("A", 4)
        rows = [random_pure_state(layout, seed=seed).amplitudes for seed in range(20)]
        for row in rows:
            assert von_neumann_entropy(PureState(row, layout)) == 0.0
        assert np.array_equal(von_neumann_entropy(PureState(np.stack(rows), layout)), np.zeros(20))
        assert solve_calls == []

    def test_deep_pure_state_solves_nothing(self, solve_calls):
        # a 160000-dimensional TMSV: no SVD of its amplitude column
        assert von_neumann_entropy(build_state("tmsv:nbar=10,cutoff=400")) == 0.0
        assert solve_calls == []

    def test_zero_pure_state_is_degenerate(self):
        # the weight check the sweep's steps pass: a zero row of a stack raises
        layout = single("A", 2)
        stack = PureState(np.array([[1.0, 0.0], [0.0, 0.0]]), layout)
        with pytest.raises(DegenerateTruncationError, match="of the state"):
            von_neumann_entropy(stack)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d, single("A", d))
            assert von_neumann_entropy(rho) == pytest.approx(np.log(d), abs=1e-12)

    def test_hand_worked_diagonal(self):
        rho = diag_state([0.5, 0.25, 0.25], single("A", 3))
        assert von_neumann_entropy(rho) == pytest.approx(1.5 * LN2, abs=1e-12)

    def test_basis_invariance(self):
        rho = random_density_matrix(4, seed=3)
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
        rotated = DensityMatrix(q @ rho.entries @ q.T.conj(), rho.layout)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_range_and_sign(self):
        for seed in range(50):
            rho = random_density_matrix(3, seed=seed)
            h = von_neumann_entropy(rho)
            assert -1e-12 <= h <= np.log(3) + 1e-9

    def test_never_negative_zero(self):
        psi = PureState(np.array([1.0, 0.0]), single("A", 2))
        h = von_neumann_entropy(psi)
        assert repr(h) != "-0.0"


class TestMinSupportedEigenvalue:
    def test_reports_smallest_above_threshold(self):
        rho = diag_state([0.6, 0.4 - 1e-13, 1e-13], single("A", 3))
        val = min_supported_eigenvalue(rho)
        assert val == pytest.approx(0.4, abs=1e-9)

    def test_pure_state(self):
        psi = PureState(np.array([1.0, 0.0]), single("A", 2))
        assert min_supported_eigenvalue(psi) == pytest.approx(1.0, abs=1e-12)

    def test_solves_for_values_only(self, eigh_sizes, vector_solve_sizes):
        min_supported_eigenvalue(random_density_matrix(5, seed=4))
        assert eigh_sizes == {5: 1}
        assert vector_solve_sizes == {}


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = random_density_matrix(4, seed=7)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_hand_worked_classical_kl(self):
        layout = single("A", 2)
        rho = diag_state([0.3, 0.7], layout)
        sigma = diag_state([0.5, 0.5], layout)
        expected = 0.3 * np.log(0.3 / 0.5) + 0.7 * np.log(0.7 / 0.5)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_pures_infinite(self):
        layout = single("A", 2)
        rho = PureState(np.array([1.0, 0.0]), layout)
        sigma = PureState(np.array([0.0, 1.0]), layout)
        assert relative_entropy(rho, sigma) == np.inf

    @pytest.mark.parametrize("d", [1e-11, 1.5e-11, 3e-11, 1e-10, 1e-8, 1e-7, 1e-3])
    def test_small_leak_is_infinite_or_nonnegative(self, d):
        # rho puts mass d outside supp(sigma); a leak above the dim * TAU_SUPP the
        # support cut can drop is infinite, and no leak may read as a negative value
        layout = single("A", 2)
        value = relative_entropy(diag_state([1.0 - d, d], layout), diag_state([1.0, 0.0], layout))
        assert value == (np.inf if d > 2e-11 else 0.0)

    def test_support_containment_finite(self):
        layout = single("A", 2)
        rho = diag_state([1.0, 0.0], layout)
        sigma = diag_state([0.5, 0.5], layout)
        assert relative_entropy(rho, sigma) == pytest.approx(LN2, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        for seed in range(100):
            rho = random_density_matrix(3, seed=seed)
            sigma = random_density_matrix(3, seed=seed + 1000)
            assert relative_entropy(rho, sigma) >= -1e-9

    def test_monotone_under_partial_trace(self):
        layout = pair_layout(2, 3)
        for seed in range(50):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            sigma = random_density_matrix(6, seed=seed + 500, layout=layout)
            full = relative_entropy(rho, sigma)
            reduced = relative_entropy(
                partial_trace(rho, keep=("A",)), partial_trace(sigma, keep=("A",))
            )
            assert reduced <= full + 1e-8

    def test_solves_sigma_with_vectors_and_rho_for_values(self, solve_calls):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=3, layout=layout)
        sigma = random_density_matrix(6, seed=4, layout=layout)
        relative_entropy(rho, sigma)
        assert sorted(call[:2] for call in solve_calls) == [("eigh", (6, 6)), ("eigvalsh", (6, 6))]

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            relative_entropy(random_density_matrix(2, seed=0), random_density_matrix(3, seed=0))

    def test_subsystem_dimensions_must_match(self):
        # equal total dimension 4, but subsystems (2, 2) against (4,)
        rho = bell(2).as_density()
        sigma = random_density_matrix(4, seed=0, layout=single("A", 4))
        with pytest.raises(StructuralError, match="subsystem dimensions"):
            relative_entropy(rho, sigma)
        # labels may differ where the dimensions agree
        relabeled = DensityMatrix(rho.entries, pair_layout(2, 2))
        assert relative_entropy(rho, relabeled) == pytest.approx(0.0, abs=1e-10)


class TestRelativeEntropyVsProduct:
    def test_agrees_with_generic_on_full_support(self):
        layout = pair_layout(2, 3)
        for seed in range(100):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            a = random_density_matrix(2, seed=seed + 1, layout=single("A", 2))
            c = random_density_matrix(3, seed=seed + 2, layout=single("C", 3))
            direct = relative_entropy(rho, tensor(a, c))
            factored = vs_product(rho, a, c)
            assert factored == pytest.approx(direct, abs=1e-10)

    def test_support_violation_infinite(self):
        layout = pair_layout(2, 2)
        amp = np.zeros(4)
        amp[3] = 1.0  # |11> against a product supported only on |0> x full
        rho = PureState(amp, layout).as_density()
        a = diag_state([1.0, 0.0], single("A", 2))
        c = diag_state([0.5, 0.5], single("C", 2))
        assert vs_product(rho, a, c) == np.inf

    @pytest.mark.parametrize("d", [1e-11, 3e-11, 1e-10, 1e-8, 1e-7, 1e-3])
    def test_small_leak_is_infinite_or_nonnegative(self, d):
        # rho = diag(1-d, d) x |0><0| against |0><0| x |0><0|: A's marginal leaks d
        a = diag_state([1.0, 0.0], single("A", 2))
        c = diag_state([1.0, 0.0], single("C", 2))
        rho = tensor(diag_state([1.0 - d, d], single("A", 2)), c)
        expected = np.inf if d > 4e-11 else 0.0  # dim * TAU_SUPP at dim 4
        assert vs_product(rho, a, c) == expected
        assert relative_entropy(rho, tensor(a, c)) == expected

    def test_rank_deficient_factors_supported(self):
        # the product sigma has exact kernel, rho lives inside its support
        layout = pair_layout(2, 2)
        amp = np.zeros(4)
        amp[0] = amp[1] = 1 / np.sqrt(2)  # |0>(|0>+|1>) inside |0> x full
        rho = PureState(amp, layout).as_density()
        a = diag_state([1.0, 0.0], single("A", 2))
        c = diag_state([0.5, 0.5], single("C", 2))
        got = vs_product(rho, a, c)
        # -H(rho) - tr(rho ln sigma) = 0 + ln 2
        assert got == pytest.approx(LN2, abs=1e-10)

    def test_deep_product_spectrum_stays_finite(self):
        # eigenvalues of the product fall far below the generic support cutoff;
        # the factored form must still treat them as supported
        n = 14
        lam = 0.5
        weights = lam ** (2 * np.arange(n))
        weights /= weights.sum()
        layout_a = single("A", n)
        layout_b = single("C", n)
        a = diag_state(weights, layout_a)
        c = diag_state(weights, layout_b)
        amp = np.zeros(n * n)
        amp[np.arange(n) * (n + 1)] = np.sqrt(weights)
        rho = PureState(amp, SubsystemLayout((("A", n), ("C", n)))).as_density()
        got = vs_product(rho, a, c)
        assert np.isfinite(got)
        # pure rho: D(rho || A x B) = -tr(rho ln(A x B)) = 2 H(marginal)
        expected = 2.0 * von_neumann_entropy(a)
        assert got == pytest.approx(expected, abs=1e-9)


    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("leak", [0.0, 1e-8, 1e-3, 1.0])
    def test_verdict_and_value_agree_with_generic_on_rank_deficient_factors(self, seed, leak):
        # rank-2 factors on 3-dim spaces; rho mixes a state inside supp(a) x supp(c)
        # with weight `leak` of a full-rank state, which leaks out of it
        a = random_density_matrix(3, rank=2, seed=seed, layout=single("A", 3))
        c = random_density_matrix(3, rank=2, seed=seed + 100, layout=single("C", 3))
        support = np.kron(
            *(np.linalg.eigh(m.entries)[1][:, 1:] for m in (a, c))
        )  # both factors' kernels are their lowest eigenvector
        inside = random_density_matrix(4, seed=seed + 200).entries
        outside = random_density_matrix(9, seed=seed + 300).entries
        entries = (1 - leak) * support @ inside @ support.conj().T + leak * outside
        rho = DensityMatrix(entries, pair_layout(3, 3))
        direct = relative_entropy(rho, tensor(a, c))
        factored = vs_product(rho, a, c)
        assert np.isfinite(factored) == np.isfinite(direct) == (leak == 0.0)
        if leak == 0.0:
            assert factored == pytest.approx(direct, abs=1e-10)


def lossy_tmsv(cutoff, nbar=1.0, eta=0.7):
    """A TMSV whose mode B went through pure loss, from the loss Kraus operators.

    A_l = sum_n sqrt(C(n, l)) eta^((n-l)/2) (1-eta)^(l/2) |n-l><n|; the TMSV
    amplitude matrix is diagonal, so branch l has amplitudes diag(c) A_l^T.
    """
    x = nbar / (1.0 + nbar)
    c = np.sqrt(x ** np.arange(cutoff))
    c /= np.linalg.norm(c)
    n = np.arange(cutoff)
    branches = []
    for l in range(cutoff):
        kraus = np.zeros((cutoff, cutoff))
        kraus[n[l:] - l, n[l:]] = [
            np.sqrt(math.comb(m, l) * eta ** (m - l) * (1.0 - eta) ** l) for m in n[l:]
        ]
        branches.append((c[:, None] * kraus.T).ravel())
    v = np.array(branches).T
    layout = SubsystemLayout((("A", cutoff), ("B", cutoff)))
    return DensityMatrix(v @ v.T, layout)


class TestLossyTmsv:
    """A valid state whose B marginal has an eigenvalue just under the support cutoff."""

    @pytest.mark.parametrize("cutoff", [26, 30])
    def test_finite_and_matches_entropy_difference(self, cutoff):
        rho = lossy_tmsv(cutoff)
        assert validate(rho).ok
        standard = conditional_entropy_standard(rho, "A", "B")
        h_a = von_neumann_entropy(partial_trace(rho, "A"))
        value = conditional_entropy(rho, "A", "B")
        mutual = mutual_information_states(rho, "A", "B")
        assert np.isfinite(value) and np.isfinite(mutual)
        assert abs(value - standard) <= 1e-10
        assert abs(mutual - (h_a - standard)) <= 1e-10

    @pytest.mark.parametrize("cutoff", [26, 30])
    def test_sweep_stays_finite(self, cutoff):
        points = conditional_entropy_sweep(
            lossy_tmsv(cutoff), "A", "B", [(n, n) for n in range(1, cutoff + 1)]
        )
        for p in points:
            assert np.isfinite(p.cond_entropy_nats) and np.isfinite(p.h_nk), p
            assert p.diff >= 0.0, p  # a sum of two relative entropies


class TestConditionalEntropy:
    @pytest.mark.parametrize(
        "target, given", [(("A", "C"), "B"), ("B", ("A", "C")), ("C", ("A", "B"))]
    )
    def test_stacked_pure_state_groups_like_the_dense_route(self, target, given):
        # the factor route regroups the amplitudes, across non-adjacent labels
        # too, and a stack gives each row its own value to the bit
        layout = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])
        rows = [random_pure_state(layout, seed=seed).amplitudes for seed in range(4)]
        stack = conditional_entropy(PureState(np.stack(rows), layout), target, given)
        for row, value in zip(rows, stack):
            psi = PureState(row, layout)
            assert value == conditional_entropy(psi, target, given)
            assert abs(value - conditional_entropy(psi.as_density(), target, given)) <= 1e-12

    def test_bell_pieces_and_value(self):
        rho = bell(2)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)
        assert von_neumann_entropy(partial_trace(rho, keep=("B",))) == pytest.approx(
            LN2, abs=1e-12
        )
        assert mutual_information_states(rho, "A", "B") == pytest.approx(2 * LN2, abs=1e-10)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            -LN2, abs=1e-10
        )

    def test_higher_dimensional_bell(self):
        rho = bell(3)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            -np.log(3), abs=1e-10
        )

    def test_product_state_reduces_to_marginal_entropy(self):
        a = random_density_matrix(2, seed=5, layout=single("A", 2))
        c = random_density_matrix(3, seed=6, layout=single("C", 3))
        rho = tensor(a, c)
        assert conditional_entropy(rho, target="C", given="A") == pytest.approx(
            von_neumann_entropy(c), abs=1e-10
        )

    def test_classical_correlated_zero(self):
        rho = classical_correlated(2)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_matches_entropy_difference_formula(self):
        layout = pair_layout(2, 3)
        for seed in range(100):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            direct = conditional_entropy(rho, target="C", given="A")
            standard = conditional_entropy_standard(rho, target="C", given="A")
            assert direct == pytest.approx(standard, abs=1e-8)

    def test_multipartite_grouping(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=11, layout=layout)
        direct = conditional_entropy(rho, target=("A", "C"), given="B")
        standard = conditional_entropy_standard(rho, target=("A", "C"), given="B")
        assert direct == pytest.approx(standard, abs=1e-8)

    def test_unitary_invariance(self):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=13, layout=layout)
        rng = np.random.default_rng(1)
        qa, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        qc, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        u = np.kron(qa, qc)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T, layout)
        assert conditional_entropy(rotated, target="C", given="A") == pytest.approx(
            conditional_entropy(rho, target="C", given="A"), abs=1e-8
        )

    def test_bounded_by_marginal_entropy(self):
        layout = pair_layout(2, 3)
        for seed in range(50):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            h_c = von_neumann_entropy(partial_trace(rho, keep=("C",)))
            val = conditional_entropy(rho, target="C", given="A")
            assert abs(val) <= h_c + 1e-8

    def test_trivial_conditioner_reduces_to_entropy(self):
        layout = SubsystemLayout((("A", 3), ("B", 1)))
        rho = random_density_matrix(3, seed=17, layout=layout)
        marg = partial_trace(rho, keep=("A",))
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            von_neumann_entropy(marg), abs=1e-10
        )

    def test_duality_with_trivial_first_slot(self):
        # pure state on (A=1, B=d, C=d): H(C|A) = H(rho_C) and H(C|B) = -H(rho_C)
        layout = SubsystemLayout((("A", 1), ("B", 3), ("C", 3)))
        psi = random_pure_state(layout, seed=19)
        rho = psi.as_density()
        h_c = von_neumann_entropy(partial_trace(rho, keep=("C",)))
        red_ac = partial_trace(rho, keep=("A", "C"))
        red_bc = partial_trace(rho, keep=("B", "C"))
        assert conditional_entropy(red_ac, target="C", given="A") == pytest.approx(
            h_c, abs=1e-9
        )
        assert conditional_entropy(red_bc, target="C", given="B") == pytest.approx(
            -h_c, abs=1e-9
        )

    def test_overlap_rejected_and_rest_traced_out(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=23, layout=layout)
        with pytest.raises(StructuralError):
            conditional_entropy(rho, target=("A", "B"), given=("B", "C"))  # overlap
        # C is in neither set: the value is that of rho_AB, to the bit
        reduced = partial_trace(rho, ("A", "B"))
        assert conditional_entropy(rho, "A", "B") == conditional_entropy(reduced, "A", "B")

    def test_near_kernel_weight_below_support_cutoff(self):
        # amplitude mass below the support threshold is cut from both marginals,
        # but supp(rho) <= supp(rho_C) x supp(rho_A) holds for every state, so the
        # correlation term is finite: H(C|A) = -H(rho_A) ~ -3.09e-12, up to the cut
        layout = pair_layout(2, 2)
        eps = 1e-13
        amp = np.array([np.sqrt(1 - eps), 0.0, 0.0, np.sqrt(eps)])
        rho = PureState(amp, layout).as_density()
        exact = eps * np.log(eps) + (1 - eps) * np.log1p(-eps)
        assert exact == pytest.approx(-3.09e-12, abs=1e-14)
        val = conditional_entropy(rho, target="C", given="A")
        assert np.isfinite(val)
        assert abs(val - exact) <= 1e-11

    def test_small_but_supported_weight_stays_finite(self):
        layout = pair_layout(2, 2)
        eps = 1e-8
        amp = np.array([np.sqrt(1 - eps), 0.0, 0.0, np.sqrt(eps)])
        rho = PureState(amp, layout).as_density()
        val = conditional_entropy(rho, target="C", given="A")
        assert np.isfinite(val)
        # pure bipartite state: H(C|A) = -H(rho_A)
        h_a = von_neumann_entropy(partial_trace(rho, keep=("A",)))
        assert val == pytest.approx(-h_a, abs=1e-9)


class TestOneSpectrumPath:
    def test_two_party_conditional_entropy_makes_three_solves(self, eigh_sizes):
        rho = random_density_matrix(6, seed=2, layout=pair_layout(2, 3))
        conditional_entropy(rho, "C", "A")
        assert sum(eigh_sizes.values()) == 3

    @pytest.mark.parametrize(
        "dims, target, given",
        [
            ((("A", 2), ("C", 3)), "C", "A"),
            ((("A", 3), ("B", 2), ("C", 2)), ("A", "C"), "B"),
            ((("A", 2), ("B", 3), ("C", 2)), "B", ("A", "C")),
        ],
    )
    def test_conditional_entropy_is_exactly_its_two_terms(self, dims, target, given):
        layout = SubsystemLayout(dims)
        for seed in range(10):
            rho = random_density_matrix(layout.total_dim, seed=seed, layout=layout)
            labels_t, labels_g, _ = layout.split(target, given)
            grouped = permute_subsystems(rho, labels_t + labels_g)
            rho_t = partial_trace(grouped, labels_t)
            rho_g = partial_trace(grouped, labels_g)
            expected = von_neumann_entropy(rho_t) - vs_product(
                grouped, rho_t, rho_g
            )
            assert conditional_entropy(rho, target, given) == expected


    def test_a_stack_of_totals_rounds_as_each_total_alone(self):
        # the round-off rule on an array is the scalar rule entry by entry,
        # to the bit: tiny negatives and -0.0 become 0.0, the rest pass
        totals = [-2 * NEG_CLAMP, -NEG_CLAMP, -NEG_CLAMP / 2, -0.0, 0.0, 5e-324, 0.25, -math.inf]
        totals.append(math.nan)
        stack = np.array(totals * 2).reshape(2, -1)
        got = _rounded(stack)
        expected = np.array([_rounded(t) for t in stack.ravel().tolist()]).reshape(stack.shape)
        assert got.shape == stack.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert not np.signbit(got[np.isfinite(got) & (got == 0.0)]).any()
        assert list(got[0, :3]) == [-2 * NEG_CLAMP, 0.0, 0.0]


class TestMutualInformation:
    def test_matches_entropy_combination(self):
        layout = pair_layout(2, 3)
        for seed in range(50):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            h_a = von_neumann_entropy(partial_trace(rho, keep=("A",)))
            h_c = von_neumann_entropy(partial_trace(rho, keep=("C",)))
            h_ac = von_neumann_entropy(rho)
            assert mutual_information_states(rho, "A", "C") == pytest.approx(
                h_a + h_c - h_ac, abs=1e-8
            )

    def test_nonnegative(self):
        layout = pair_layout(3, 3)
        for seed in range(50):
            rho = random_density_matrix(9, seed=seed, layout=layout)
            assert mutual_information_states(rho, "A", "C") >= -1e-9

    def test_product_state_zero(self):
        a = random_density_matrix(2, seed=1, layout=single("A", 2))
        c = random_density_matrix(2, seed=2, layout=single("C", 2))
        assert mutual_information_states(tensor(a, c), "A", "C") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_label_order_irrelevant(self):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=9, layout=layout)
        assert mutual_information_states(rho, "C", "A") == pytest.approx(
            mutual_information_states(rho, "A", "C"), abs=1e-10
        )


class TestUnitConversion:
    def test_ln2_is_one_bit(self):
        assert nats_to_bits(LN2) == pytest.approx(1.0, abs=1e-15)

    def test_infinities_pass_through(self):
        assert nats_to_bits(np.inf) == np.inf
        assert nats_to_bits(-np.inf) == -np.inf

    def test_zero(self):
        assert nats_to_bits(0.0) == 0.0


PURIFIED = SubsystemLayout([("A", 2), ("B", 3), ("C", 2)])
# each pair leaves one label out, which a pure state's factor keeps as its r axis
PURIFIER_PAIRS = [("A", "B"), ("B", "A"), ("C", "A"), ("B", "C")]


def no_densify(monkeypatch):
    def densify(self):
        raise AssertionError("PureState.as_density was called")

    monkeypatch.setattr(PureState, "as_density", densify)


class TestPurifierRoute:
    """A pure state's labels outside target and given become its factor's
    purifier axis. Every quantity agrees with the dense route, which traces
    them out, and with the channel route, within 1e-12."""

    STATES = [random_pure_state(PURIFIED, seed=seed) for seed in range(4)]
    STACK = PureState(np.stack([psi.amplitudes for psi in STATES]), PURIFIED)
    # densified before the tests forbid it
    DENSE = [psi.as_density() for psi in [*STATES, STACK]]

    @pytest.mark.parametrize("target, given", PURIFIER_PAIRS)
    def test_entropies_agree_with_dense_and_channel_routes(self, target, given, monkeypatch):
        no_densify(monkeypatch)
        for state, rho in zip([*self.STATES, self.STACK], self.DENSE):
            h_channel = conditional_entropy_via_coherent_info(rho, target, given)
            # I(T:G) = H(T) - H(T|G)
            i_channel = von_neumann_entropy(partial_trace(rho, target)) - h_channel
            h = conditional_entropy(state, target, given)
            i = mutual_information_states(state, target, given)
            assert np.all(np.abs(h - conditional_entropy(rho, target, given)) <= 1e-12)
            assert np.all(np.abs(h - h_channel) <= 1e-12)
            assert np.all(np.abs(i - mutual_information_states(rho, target, given)) <= 1e-12)
            assert np.all(np.abs(i - i_channel) <= 1e-12)

    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    @pytest.mark.parametrize("target, given", PURIFIER_PAIRS)
    def test_sweep_and_diagnostics_agree_with_dense_and_channel_routes(
        self, target, given, mode, monkeypatch
    ):
        no_densify(monkeypatch)
        full = (PURIFIED.dim_of(target), PURIFIED.dim_of(given))
        ranks = [(n, k) for n in range(1, full[0] + 1) for k in range(1, full[1] + 1)]
        fields = ("h_nk", "h_tilde_nk", "marginal_a_divergence", "marginal_b_divergence")
        for psi, rho in zip(self.STATES, self.DENSE):
            (point,) = conditional_entropy_sweep(psi, target, given, [full], mode)
            (reference,) = conditional_entropy_sweep(rho, target, given, [full], mode)
            for field in ("lam", "cond_entropy_nats", "h_nk", "h_tilde_nk", "diff"):
                assert abs(getattr(point, field) - getattr(reference, field)) <= 1e-12
            h_channel = conditional_entropy_via_coherent_info(rho, target, given)
            assert abs(point.cond_entropy_nats - h_channel) <= 1e-12
            for n, k in ranks:
                got = truncation_diagnostics(psi, target, given, n, k, mode)
                reference = truncation_diagnostics(rho, target, given, n, k, mode)
                for field in fields:
                    assert abs(getattr(got, field) - getattr(reference, field)) <= 1e-12
                assert got.residual <= 1e-12


CHANNEL_ROUTE = "conditional_entropy_via_coherent_info"
BIPARTITION_ROUTES = {
    "conditional_entropy": conditional_entropy,
    "mutual_information_states": mutual_information_states,
    "conditional_entropy_sweep": lambda rho, t, g: conditional_entropy_sweep(
        rho, t, g, schedule=[(1, 1)]
    ),
    CHANNEL_ROUTE: conditional_entropy_via_coherent_info,
}
BIPARTITION_CASES = {
    "overlap": ("A", ("A", "B")),
    "empty": ((), "B"),
    "unknown": ("A", "Z"),
    # only the channel route needs a remainder to trace out
    "remainder": ("A", ("B", "C")),
}


class TestBipartitionErrors:
    """Every route resolves its two label sets through the same layout rule."""

    @pytest.mark.parametrize(
        "case, route",
        [
            pytest.param(case, route, id=f"{case}-{route}")
            for case in BIPARTITION_CASES
            for route in sorted(BIPARTITION_ROUTES)
            if case != "remainder" or route == CHANNEL_ROUTE
        ],
    )
    def test_rejected(self, case, route):
        rho = ghz(parties=3, dim=2).as_density()
        error = PreconditionError if case == "remainder" else StructuralError
        with pytest.raises(error):
            BIPARTITION_ROUTES[route](rho, *BIPARTITION_CASES[case])

    @pytest.mark.parametrize("route", sorted(set(BIPARTITION_ROUTES) - {CHANNEL_ROUTE}))
    def test_other_routes_trace_the_remainder_out(self, route):
        # C is in neither set: every other route reads rho_AB, to the bit
        rho = ghz(parties=3, dim=2).as_density()
        fn = BIPARTITION_ROUTES[route]
        assert fn(rho, "A", "B") == fn(partial_trace(rho, ("A", "B")), "A", "B")
