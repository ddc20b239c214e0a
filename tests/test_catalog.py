"""Tests for the named-state catalog, the spec grammar, and truncation tail masses."""

import numpy as np
import pytest

from qentropy.catalog import (
    CATALOG,
    bell,
    build_state,
    classical_correlated,
    g_function,
    ghz,
    parse_state_spec,
    thermal_fock,
    thermal_tail_mass,
    tmsv,
    tmsv_tail_mass,
    werner,
)
from qentropy.entropy import (
    conditional_entropy,
    mutual_information_states,
    von_neumann_entropy,
)
from qentropy.errors import ParseError, PreconditionError
from qentropy.states import DensityMatrix, PureState, as_density, partial_trace, validate

LN2 = np.log(2.0)


class TestGFunction:
    def test_zero_occupation(self):
        assert g_function(0.0) == 0.0

    def test_unit_occupation(self):
        # g(1) = 2 ln 2 - 1 ln 1
        assert g_function(1.0) == pytest.approx(2 * LN2, abs=1e-15)

    def test_closed_form(self):
        n = 2.5
        expected = (n + 1) * np.log(n + 1) - n * np.log(n)
        assert g_function(n) == pytest.approx(expected, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            g_function(-0.1)

    def test_matches_truncated_thermal_entropy(self):
        # at cutoff 60 the truncation tail is ~1e-18; the residual bias comes
        # from the support cutoff dropping eigenvalues below 1e-11
        rho = thermal_fock(nbar=1.0, cutoff=60)
        assert von_neumann_entropy(rho) == pytest.approx(g_function(1.0), abs=1e-8)


class TestTailMasses:
    def test_thermal_geometric_tail(self):
        assert thermal_tail_mass(1.0, 40) == pytest.approx(0.5**40, abs=1e-25)
        assert thermal_tail_mass(1.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_tmsv_matches_thermal(self):
        assert tmsv_tail_mass(1.0, 30) == thermal_tail_mass(1.0, 30)

    def test_zero_occupation_no_tail(self):
        assert thermal_tail_mass(0.0, 5) == 0.0


class TestBell:
    def test_qubit_marginals_maximally_mixed(self):
        rho = as_density(bell(2))
        assert rho.layout.labels == ("A", "B")
        for label in ("A", "B"):
            red = partial_trace(rho, keep=(label,))
            assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_conditional_entropy_saturates_lower_bound(self):
        for d in (2, 3, 4):
            rho = as_density(bell(d))
            assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
                -np.log(d), abs=1e-10
            )

    def test_mutual_information(self):
        assert mutual_information_states(as_density(bell(2)), "A", "B") == pytest.approx(
            2 * LN2, abs=1e-10
        )

    def test_dimension_guard(self):
        with pytest.raises(PreconditionError):
            bell(1)


class TestGhz:
    def test_pairwise_marginal_is_classical(self):
        rho = as_density(ghz(parties=3, dim=2))
        red = partial_trace(rho, keep=("A", "C"))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(red.entries, expected, atol=1e-12)

    def test_conditional_entropy_between_parties_zero(self):
        rho = as_density(ghz(parties=3, dim=2))
        red = partial_trace(rho, keep=("A", "C"))
        assert conditional_entropy(red, target="C", given="A") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_two_parties_reduces_to_bell(self):
        a = as_density(ghz(parties=2, dim=3))
        b = as_density(bell(3))
        assert np.allclose(a.entries, b.entries, atol=1e-12)

    def test_party_count_guard(self):
        with pytest.raises(PreconditionError):
            ghz(parties=1)
        with pytest.raises(PreconditionError):
            ghz(parties=27)


class TestClassicalCorrelated:
    def test_zero_conditional_entropy(self):
        rho = classical_correlated(3)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_mutual_information_is_log_dim(self):
        rho = classical_correlated(3)
        assert mutual_information_states(rho, "A", "B") == pytest.approx(
            np.log(3), abs=1e-10
        )


class TestWerner:
    def test_pure_singlet_endpoint(self):
        rho = werner(1.0)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            -LN2, abs=1e-10
        )

    def test_maximally_mixed_endpoint(self):
        rho = werner(0.0)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            LN2, abs=1e-10
        )

    def test_spectrum(self):
        p = 0.7
        w = np.linalg.eigvalsh(werner(p).entries)
        expected = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
        assert np.allclose(np.sort(w), expected, atol=1e-12)

    def test_parameter_range(self):
        with pytest.raises(PreconditionError):
            werner(-0.1)
        with pytest.raises(PreconditionError):
            werner(1.1)


class TestThermalFock:
    def test_entropy_near_g_function(self):
        rho = thermal_fock(nbar=1.0, cutoff=40)
        assert von_neumann_entropy(rho) == pytest.approx(g_function(1.0), abs=1e-8)

    def test_geometric_weights(self):
        rho = thermal_fock(nbar=1.0, cutoff=6)
        w = np.diag(rho.entries).real
        q = 0.5
        expected = (1 - q) * q ** np.arange(6) / (1 - q**6)
        assert np.allclose(w, expected, atol=1e-14)

    def test_zero_occupation_is_ground_state(self):
        rho = thermal_fock(nbar=0.0, cutoff=5)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
        assert rho.entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_validates(self):
        assert validate(thermal_fock(nbar=2.0, cutoff=25)).ok


class TestTmsv:
    def test_marginal_is_truncated_thermal(self):
        psi = tmsv(nbar=1.0, cutoff=20)
        red = partial_trace(psi.as_density(), keep=("A",))
        thermal = thermal_fock(nbar=1.0, cutoff=20)
        assert np.allclose(red.entries, thermal.entries, atol=1e-12)

    def test_squeezing_parameterization(self):
        # r with sinh^2 r = 1 must agree with nbar = 1
        r = float(np.arcsinh(1.0))
        a = tmsv(r=r, cutoff=10).as_density()
        b = tmsv(nbar=1.0, cutoff=10).as_density()
        assert np.allclose(a.entries, b.entries, atol=1e-12)

    def test_zero_squeezing_is_vacuum(self):
        psi = tmsv(r=0.0, cutoff=5)
        rho = psi.as_density()
        assert rho.entries[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert conditional_entropy(rho, target="A", given="B") == pytest.approx(
            0.0, abs=1e-10
        )

    def test_conditional_entropy_approaches_negative_g(self):
        # pure bipartite state: H(A|B) = -H(rho_B); the truncated marginal
        # entropy approaches g(nbar) from below as the cutoff grows
        rho = tmsv(nbar=1.0, cutoff=30).as_density()
        val = conditional_entropy(rho, target="A", given="B")
        assert val == pytest.approx(-g_function(1.0), abs=1e-6)

    def test_exactly_one_parameterization(self):
        with pytest.raises(PreconditionError):
            tmsv(cutoff=10)
        with pytest.raises(PreconditionError):
            tmsv(nbar=1.0, r=0.5, cutoff=10)


class TestCatalogRegistry:
    def test_every_entry_builds_valid_state(self):
        specs = {
            "bell": "bell",
            "ghz": "ghz",
            "classical": "classical",
            "werner": "werner",
            "thermal": "thermal",
            "tmsv": "tmsv:nbar=1",
        }
        assert set(specs) == set(CATALOG)
        for name, spec in specs.items():
            state = build_state(spec)
            report = validate(as_density(state))
            assert report.ok, f"{name}: {report.describe()}"

    def test_references_present(self):
        for name, entry in CATALOG.items():
            assert entry.description
            assert entry.references
            for key, value in entry.references.items():
                assert isinstance(key, str) and key
                assert isinstance(value, str) and value

    def test_tail_mass_only_for_truncated_families(self):
        assert CATALOG["thermal"].tail_mass is not None
        assert CATALOG["tmsv"].tail_mass is not None
        assert CATALOG["bell"].tail_mass is None


class TestSpecGrammar:
    def test_name_only(self):
        assert parse_state_spec("bell") == ("bell", {})

    def test_parameters_parsed_with_types(self):
        name, params = parse_state_spec("tmsv:nbar=1,cutoff=30")
        assert name == "tmsv"
        assert params == {"nbar": 1.0, "cutoff": 30}
        assert isinstance(params["cutoff"], int)

    def test_float_and_string_values(self):
        _, params = parse_state_spec("werner:p=0.25")
        assert params == {"p": 0.25}

    def test_whitespace_tolerated(self):
        name, params = parse_state_spec(" bell : dim = 3 ")
        assert name == "bell"
        assert params == {"dim": 3}

    def test_empty_name_rejected(self):
        with pytest.raises(ParseError):
            parse_state_spec("")
        with pytest.raises(ParseError):
            parse_state_spec(":dim=2")

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ParseError):
            parse_state_spec("bell:dim")
        with pytest.raises(ParseError):
            parse_state_spec("bell:dim=2=3")
        with pytest.raises(ParseError):
            parse_state_spec("bell:=2")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_state_spec("bell:dim=2,dim=3")


class TestBuildState:
    def test_returns_the_state_its_family_builds(self):
        # a pure family stays pure; a mixed one is a density matrix
        psi = build_state("bell:dim=3")
        assert isinstance(psi, PureState)
        assert psi.layout.dims == (3, 3)
        assert np.array_equal(psi.amplitudes, bell(3).amplitudes)
        assert validate(as_density(psi)).ok
        assert isinstance(build_state("werner:p=0.5"), DensityMatrix)

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            build_state("squeezed-cat")

    def test_unknown_parameter(self):
        with pytest.raises(ParseError):
            build_state("bell:cutoff=3")

    def test_non_numeric_parameter(self):
        with pytest.raises(ParseError):
            build_state("werner:p=abc")

    @pytest.mark.parametrize("spec", ["thermal:nbar=nan", "tmsv:nbar=nan", "tmsv:nbar=inf"])
    def test_non_finite_parameter(self, spec):
        with pytest.raises(ParseError, match="non-finite"):
            build_state(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "bell:dim=2.5",
            "classical:dim=3.5",
            "ghz:parties=3.5",
            "ghz:dim=2.5",
            "thermal:nbar=1,cutoff=2.9",
            "tmsv:nbar=1,cutoff=8.6",
            "tmsv:nbar=1,cutoff=abc",
        ],
    )
    def test_fractional_integer_parameter_rejected(self, spec):
        # int() would truncate 2.9 to 2 and build a different state
        with pytest.raises(ParseError, match="must be an integer"):
            build_state(spec)

    @pytest.mark.parametrize(
        "spec, exact",
        [
            ("thermal:nbar=1,cutoff=2.0", "thermal:nbar=1,cutoff=2"),
            ("tmsv:nbar=1,cutoff=1e1", "tmsv:nbar=1,cutoff=10"),
            ("ghz:parties=3.0,dim=2.0", "ghz:parties=3,dim=2"),
            ("bell:dim=3.0", "bell:dim=3"),
        ],
    )
    def test_integral_float_reads_as_integer(self, spec, exact):
        a, b = build_state(spec), build_state(exact)
        assert a.layout == b.layout
        assert np.array_equal(as_density(a).entries, as_density(b).entries)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bell(2.5),
            lambda: bell(True),
            lambda: ghz(parties=3.5),
            lambda: classical_correlated(2.5),
            lambda: thermal_fock(1.0, cutoff=2.9),
            lambda: tmsv(nbar=1.0, cutoff=8.6),
            lambda: thermal_tail_mass(1.0, 2.5),
        ],
    )
    def test_builders_apply_the_same_rule(self, call):
        with pytest.raises(ParseError, match="must be an integer"):
            call()

    def test_builders_take_numpy_integers(self):
        assert bell(np.int64(3)).layout.dims == (3, 3)

    def test_physics_guards_pass_through(self):
        with pytest.raises(PreconditionError):
            build_state("thermal:nbar=-1")
        with pytest.raises(PreconditionError):
            build_state("werner:p=2")
