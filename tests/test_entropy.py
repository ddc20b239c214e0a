"""Tests for entropic quantities: von Neumann, relative, conditional, mutual information."""

import numpy as np
import pytest

from qentropy.catalog import bell, classical_correlated, ghz
from qentropy.channels import conditional_entropy_via_coherent_info
from qentropy.entropy import (
    conditional_entropy,
    conditional_entropy_standard,
    min_supported_eigenvalue,
    mutual_information_states,
    nats_to_bits,
    relative_entropy,
    relative_entropy_vs_product,
    von_neumann_entropy,
)
from qentropy.errors import PreconditionError, StructuralError
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    partial_trace,
    permute_subsystems,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
)
from qentropy.truncation import conditional_entropy_sweep

LN2 = np.log(2.0)


def diag_state(values, layout):
    return DensityMatrix(np.diag(np.asarray(values, dtype=complex)), layout)


def pair_layout(da, db):
    return SubsystemLayout((("A", da), ("C", db)))


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        for seed in range(20):
            psi = random_pure_state(single("A", 4), seed=seed)
            assert abs(von_neumann_entropy(psi)) <= 1e-10

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

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            relative_entropy(random_density_matrix(2, seed=0), random_density_matrix(3, seed=0))


class TestRelativeEntropyVsProduct:
    def test_agrees_with_generic_on_full_support(self):
        layout = pair_layout(2, 3)
        for seed in range(100):
            rho = random_density_matrix(6, seed=seed, layout=layout)
            a = random_density_matrix(2, seed=seed + 1, layout=single("A", 2))
            c = random_density_matrix(3, seed=seed + 2, layout=single("C", 3))
            direct = relative_entropy(rho, tensor(a, c))
            factored = relative_entropy_vs_product(rho, a, c)
            assert factored == pytest.approx(direct, abs=1e-10)

    def test_layout_order_must_match(self):
        layout = pair_layout(2, 3)
        rho = random_density_matrix(6, seed=0, layout=layout)
        a = random_density_matrix(2, seed=1, layout=single("A", 2))
        c = random_density_matrix(3, seed=2, layout=single("C", 3))
        with pytest.raises(StructuralError):
            relative_entropy_vs_product(rho, c, a)

    def test_support_violation_infinite(self):
        layout = pair_layout(2, 2)
        amp = np.zeros(4)
        amp[3] = 1.0  # |11> against a product supported only on |0> x full
        rho = PureState(amp, layout).as_density()
        a = diag_state([1.0, 0.0], single("A", 2))
        c = diag_state([0.5, 0.5], single("C", 2))
        assert relative_entropy_vs_product(rho, a, c) == np.inf

    def test_rank_deficient_factors_supported(self):
        # the product sigma has exact kernel, rho lives inside its support
        layout = pair_layout(2, 2)
        amp = np.zeros(4)
        amp[0] = amp[1] = 1 / np.sqrt(2)  # |0>(|0>+|1>) inside |0> x full
        rho = PureState(amp, layout).as_density()
        a = diag_state([1.0, 0.0], single("A", 2))
        c = diag_state([0.5, 0.5], single("C", 2))
        got = relative_entropy_vs_product(rho, a, c)
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
        got = relative_entropy_vs_product(rho, a, c)
        assert np.isfinite(got)
        # pure rho: D(rho || A x B) = -tr(rho ln(A x B)) = 2 H(marginal)
        expected = 2.0 * von_neumann_entropy(a)
        assert got == pytest.approx(expected, abs=1e-9)


class TestConditionalEntropy:
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

    def test_labels_must_cover_state(self):
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 2)))
        rho = random_density_matrix(8, seed=23, layout=layout)
        with pytest.raises(StructuralError):
            conditional_entropy(rho, target="A", given="B")  # C unassigned
        with pytest.raises(StructuralError):
            conditional_entropy(rho, target=("A", "B"), given=("B", "C"))  # overlap

    def test_near_kernel_weight_below_support_cutoff(self):
        # amplitude mass below the support threshold is treated as kernel weight:
        # the correlation term saturates to +inf and the conditional entropy to -inf
        layout = pair_layout(2, 2)
        eps = 1e-13
        amp = np.array([np.sqrt(1 - eps), 0.0, 0.0, np.sqrt(eps)])
        rho = PureState(amp, layout).as_density()
        assert conditional_entropy(rho, target="C", given="A") == -np.inf

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
            expected = von_neumann_entropy(rho_t) - relative_entropy_vs_product(
                grouped, rho_t, rho_g
            )
            assert conditional_entropy(rho, target, given) == expected


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


class TestBipartitionErrors:
    """Every route resolves its two label sets through the same layout rule."""

    ROUTES = {
        "conditional_entropy": (conditional_entropy, "cover"),
        "mutual_information_states": (mutual_information_states, "cover"),
        "conditional_entropy_sweep": (
            lambda rho, t, g: conditional_entropy_sweep(rho, t, g, schedule=[(1, 1)]),
            "cover",
        ),
        "conditional_entropy_via_coherent_info": (conditional_entropy_via_coherent_info, "rest"),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("case", ["overlap", "empty", "unknown", "remainder"])
    def test_rejected(self, route, case):
        fn, rule = self.ROUTES[route]
        rho = ghz(parties=3, dim=2).as_density()
        target, given = {
            "overlap": ("A", ("A", "B")),
            "empty": ((), "B"),
            "unknown": ("A", "Z"),
            # covering routes need no remainder; the channel route needs one
            "remainder": ("A", "B") if rule == "cover" else ("A", ("B", "C")),
        }[case]
        error = PreconditionError if (case, rule) == ("remainder", "rest") else StructuralError
        with pytest.raises(error):
            fn(rho, target, given)
