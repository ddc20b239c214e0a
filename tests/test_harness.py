"""Tests for the randomized property checks, report replay, and sweep orchestration."""

import dataclasses
import math

import numpy as np
import pytest

from qentropy.catalog import thermal_fock
from qentropy.entropy import conditional_entropy
from qentropy.errors import InvalidStateError, ParseError, PreconditionError
from qentropy.fileio import dumps_document, save_state
from qentropy.harness import (
    CHECKS,
    SATURATION_BAND,
    PropertyReport,
    replay_report,
    report_to_dict,
    resolve_state,
    run_check,
    run_converge,
    run_suite,
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
from qentropy.tolerances import TAU_SUPP
from qentropy.truncation import PROJECTOR_MODES, conditional_entropy_sweep

LN2 = np.log(2.0)

FAST = {
    "duality": {"trials": 40},
    "bound": {"trials": 40},
    "coherent-duality": {"trials": 10},
    "monotonicity": {"trials": 40},
    "concavity": {"trials": 40},
    "subadditivity": {"trials": 15},
    "formula-standard": {"trials": 40},
    "formula-coherent": {"trials": 20},
    "continuity": {},  # already cheap; fewer steps would leave eps too coarse
}


class TestRunCheck:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_every_check_passes_at_reduced_size(self, name):
        report = run_check(name, **FAST[name])
        assert report.passed, f"{name}: worst margin {report.worst_margin}"
        assert report.property == name
        assert report.worst_margin >= -report.tolerance

    def test_unknown_property(self):
        with pytest.raises(PreconditionError):
            run_check("unitarity")

    def test_deterministic_across_calls(self):
        a = run_check("duality", trials=25)
        b = run_check("duality", trials=25)
        assert report_to_dict(a) == report_to_dict(b)

    def test_seed_changes_margins(self):
        a = run_check("duality", trials=25, seed=0)
        b = run_check("duality", trials=25, seed=99)
        assert a.worst_margin != b.worst_margin

    def test_trials_counts_fixed_and_random(self):
        report = run_check("bound", trials=25)
        # two named fixed trials ride along with the random ones
        assert report.trials == 27
        assert report.config["trials"] == 25

    def test_report_dict_shape(self):
        report = run_check("monotonicity", trials=10)
        doc = report_to_dict(report)
        assert doc["units"] == "nats"
        assert doc["verdict"] == "pass"
        assert set(doc) == {
            "property",
            "verdict",
            "trials",
            "seed",
            "tolerance",
            "worst_margin",
            "worst_seed",
            "units",
            "config",
            "saturated",
            "records",
        }
        # exactly the report's fields plus units, its tuples as lists
        assert set(doc) == {f.name for f in dataclasses.fields(PropertyReport)} | {"units"}
        assert type(doc["saturated"]) is type(doc["records"]) is list
        assert doc["records"] == list(report.records)


# the parameters each check declares, with the type run_check records for each
TRIAL_KEYS = {"dims": list, "trials": int, "seed": int, "tolerance": float}
DECLARED = {
    **{name: TRIAL_KEYS for name in FAST if name != "continuity"},
    "coherent-duality": {**TRIAL_KEYS, "env_dim": int},
    "continuity": {"base": str, "steps": int, "seed": int, "tolerance": float},
}
# small overrides that need coercing: float counts, a numpy-int seed, an int tolerance
SMALL = {"trials": 1.0, "steps": 2.0, "seed": np.int64(3), "tolerance": 1}


class TestParameterTable:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_config_records_each_declared_key_with_its_type(self, name):
        declared = DECLARED[name]
        overrides = {k: v for k, v in SMALL.items() if k in declared}
        config = run_check(name, **overrides).config
        assert set(config) == {"property", "seeding", *declared}
        assert config["property"] == name
        assert config["seeding"] == "spawn-blocks-64"
        for key, kind in declared.items():
            assert type(config[key]) is kind, (key, config[key])
        for d in config.get("dims", []):
            assert type(d) is int

    def test_library_overrides_are_coerced(self):
        report = run_check("bound", trials=3.0, dims=(np.int64(2), 2.0))
        assert report.config["trials"] == 3 and type(report.config["trials"]) is int
        assert report.config["dims"] == [2, 2]
        assert all(type(d) is int for d in report.config["dims"])
        assert report.trials == 5  # two named fixed trials ride along

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("bound", {"trials": 3.7}),
            ("bound", {"seed": 1.9}),
            ("bound", {"dims": (2, 2.5)}),
            ("bound", {"trials": True}),
            ("bound", {"trials": "3"}),
            ("coherent-duality", {"env_dim": 2.5}),
            ("continuity", {"steps": 2.9}),
        ],
    )
    def test_fractional_or_non_integer_overrides_rejected(self, name, overrides):
        # they used to be truncated and recorded: trials=3.7 ran 3 trials
        with pytest.raises(ParseError, match="must be an integer"):
            run_check(name, **overrides)

    def test_integral_float_overrides_read_as_ints(self):
        config = run_check("coherent-duality", trials=1.0, seed=2.0, env_dim=2.0).config
        assert (config["trials"], config["seed"], config["env_dim"]) == (1, 2, 2)
        assert all(type(config[k]) is int for k in ("trials", "seed", "env_dim"))
        assert run_check("continuity", steps=3.0).config["steps"] == 3

    @pytest.mark.parametrize("dims", [(0, 3), (2, -1), (2,), ()])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(PreconditionError, match="positive dims"):
            run_check("concavity", dims=dims)


class TestFixedTrials:
    def test_bound_check_reports_bell_saturation(self):
        report = run_check("bound", trials=10)
        names = {s["trial"] for s in report.saturated}
        assert "bell" in names
        (bell_entry,) = [s for s in report.saturated if s["trial"] == "bell"]
        assert abs(bell_entry["margin"]) <= SATURATION_BAND

    def test_saturation_never_lists_random_trials(self):
        for name in ("duality", "formula-standard"):
            report = run_check(name, **FAST[name])
            assert all(not s["trial"].isdigit() for s in report.saturated)

    def test_monotonicity_ghz_record(self):
        report = run_check("monotonicity", trials=10)
        ghz_records = [r for r in report.records if r["trial"] == "ghz"]
        assert len(ghz_records) == 1
        assert ghz_records[0]["margin"] == pytest.approx(LN2, abs=1e-9)

    @pytest.mark.parametrize("name", ["duality", "bound", "monotonicity"])
    def test_pure_trials_are_read_off_their_factor(self, name, monkeypatch):
        # the Haar states, the Bell pair and GHZ are handed over as built
        expected = report_to_dict(run_check(name))
        no_densify(monkeypatch)
        report = run_check(name)
        assert report.passed
        assert report_to_dict(report) == expected

    def test_coherent_duality_identity_channel_record(self):
        report = run_check("coherent-duality", trials=5)
        names = {r["trial"] for r in report.records}
        assert "identity-channel" in names
        assert "pure-state" in names


# check configs as recorded before trials were drawn in spawned blocks: they name no seeding
UNSEEDED_CONFIGS = [
    {"dims": [3, 3], "property": "bound", "seed": 7, "tolerance": 1e-08, "trials": 3},
    {"dims": [3, 3], "env_dim": 2, "property": "coherent-duality", "seed": 0,
     "tolerance": 1e-07, "trials": 300},
    {"base": "bell", "property": "continuity", "seed": 0, "steps": 20, "tolerance": 1e-06},
]  # fmt: skip


class TestReplay:
    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_replay_is_bit_identical(self, name):
        report = run_check(name, **FAST[name])
        again = replay_report(report.config)
        assert dumps_document(report_to_dict(report)) == dumps_document(
            report_to_dict(again)
        )

    def test_replay_honors_overrides(self):
        report = run_check("concavity", trials=15, seed=7, dims=(2, 2))
        again = replay_report(report.config)
        assert again.seed == 7
        assert tuple(again.config["dims"]) == (2, 2)
        assert report_to_dict(again) == report_to_dict(report)

    @pytest.mark.parametrize("config", UNSEEDED_CONFIGS, ids=lambda c: c["property"])
    def test_a_check_config_must_name_the_seeding(self, config):
        for unseeded in (config, {**config, "seeding": None}):
            with pytest.raises(PreconditionError, match="no 'seeding' field"):
                replay_report(unseeded)
        # the same config naming the derivation replays as a fresh run
        again = replay_report({**config, "seeding": "spawn-blocks-64"})
        assert again.config == {**config, "seeding": "spawn-blocks-64"}
        fresh = dict(config)
        assert report_to_dict(again) == report_to_dict(run_check(fresh.pop("property"), **fresh))

    @pytest.mark.parametrize("seeding", ["xor", "spawn-blocks-32", ""])
    def test_another_seeding_is_refused(self, seeding):
        with pytest.raises(PreconditionError, match="seeding must be 'spawn-blocks-64'"):
            replay_report({**UNSEEDED_CONFIGS[0], "seeding": seeding})
        with pytest.raises(PreconditionError, match="seeding must be 'spawn-blocks-64'"):
            run_check("bound", trials=3, seeding=seeding)

    @pytest.mark.parametrize(
        "change", [{"state": None}, {"schedule": None}, {"mode": None}, {"stride": 1}]
    )
    def test_sweep_config_needs_exactly_its_fields(self, change):
        config = {**run_converge("bell", min_rank=1)["config"], **change}
        config = {key: value for key, value in config.items() if value is not None}
        with pytest.raises(PreconditionError, match="sweep config"):
            replay_report(config)


class TestContinuity:
    def test_default_schedule_converges(self):
        report = run_check("continuity", steps=20)
        assert report.passed
        (schedule,) = report.records
        deviations = [dev for _, dev in schedule["deviations"]]
        assert len(deviations) == 20
        assert deviations[-1] < 1e-6
        assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_pure_base_state_hits_floor_above_tolerance(self):
        # mixing toward a pure state keeps an entropy deviation of order
        # eps ln(1/eps), about 1.2e-5 at eps = 2^-20, so the default 1e-6
        # tolerance fails even though the schedule decreases throughout;
        # this is the expected behavior for pure bases, recorded honestly
        report = run_check("continuity", base="bell", steps=20)
        assert not report.passed
        (schedule,) = report.records
        deviations = [dev for _, dev in schedule["deviations"]]
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        assert 1e-6 < deviations[-1] < 1e-4

    def test_base_state_file_matches_its_spec(self, tmp_path):
        # --base goes through resolve_state, so a saved state reproduces the
        # catalog spec's report; only the config's base string differs
        path = tmp_path / "werner.json"
        save_state(path, resolve_state("werner:p=0.5"))
        from_file = report_to_dict(run_check("continuity", base=str(path)))
        from_spec = report_to_dict(run_check("continuity"))
        assert from_file["config"].pop("base") == str(path)
        from_spec["config"].pop("base")
        assert from_file == from_spec
        assert from_file["trials"] == 20 and from_file["saturated"] == []

    def test_exact_zero_margin_is_listed_as_saturated(self):
        # the maximally mixed base is a fixed point of the mixing schedule: every
        # deviation is exactly 0, a boundary touch the assembler lists like any
        # named trial's
        report = run_check("continuity", base="werner:p=0")
        assert report.passed and report.worst_margin == 0.0
        assert report.saturated == ({"trial": "schedule", "margin": 0.0},)

    def test_schedule_stops_at_the_last_distinct_mixture(self):
        # 1 - 2^-53 is the last 1 - eps below 1.0: a 54th point would be the base itself
        assert 1.0 - 2.0**-53 != 1.0 and 1.0 - 2.0**-54 == 1.0
        assert run_check("continuity", steps=53).trials == 53
        with pytest.raises(PreconditionError, match="steps must be at most 53, got 54"):
            run_check("continuity", steps=54)

    def test_invalid_base_state_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        bad = DensityMatrix(np.diag([0.9, 0.9]).astype(complex), single("A", 2))
        save_state(path, bad)
        with pytest.raises(InvalidStateError, match="unit_trace"):
            run_check("continuity", base=str(path))


class TestRunSuite:
    def test_subset_preserves_requested_order(self):
        reports = run_suite(properties=["bound", "duality"])
        assert [r.property for r in reports] == ["bound", "duality"]

    def test_unknown_property_rejected(self):
        with pytest.raises(PreconditionError):
            run_suite(properties=["duality", "nope"])


class TestResolveState:
    def test_catalog_spec(self):
        rho = resolve_state("bell:dim=3")
        assert rho.layout.dims == (3, 3)

    def test_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        rho = tensor(
            thermal_fock(nbar=0.5, cutoff=4),
            DensityMatrix(np.eye(2) / 2, single("B", 2)),
        )
        save_state(path, rho)
        back = resolve_state(str(path))
        assert np.array_equal(back.entries, rho.entries)

    def test_invalid_state_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        bad = DensityMatrix(np.diag([0.9, 0.9]).astype(complex), single("A", 2))
        save_state(path, bad)
        with pytest.raises(InvalidStateError, match="unit_trace"):
            resolve_state(str(path))

    def test_unknown_catalog_name(self):
        with pytest.raises(ParseError):
            resolve_state("not-a-state")


class TestRunConverge:
    def test_document_shape_and_convergence(self):
        doc = run_converge(state_spec="tmsv:nbar=1,cutoff=12", min_rank=2, stride=2)
        assert doc["kind"] == "sweep"
        assert doc["config"]["state"] == "tmsv:nbar=1,cutoff=12"
        summary = doc["summary"]
        assert summary["steps"] == len(doc["points"])
        assert summary["skipped_steps"] == 0
        assert summary["final_rank_A"] == 12
        assert abs(summary["final_gap_to_base"]) <= 1e-9
        gaps = [
            abs(p.cond_entropy_nats - summary["base_cond_entropy_nats"])
            for p in doc["points"]
        ]
        assert np.all(np.diff(gaps) <= 1e-12)

    def test_product_state_file_gives_marginal_entropy(self, tmp_path):
        # for a product state the conditional entropy at every step is just
        # the entropy of the truncated-renormalized target marginal
        path = tmp_path / "product.json"
        a = thermal_fock(nbar=1.0, cutoff=6)
        b_entries = thermal_fock(nbar=0.5, cutoff=6).entries
        b = DensityMatrix(b_entries, single("B", 6))
        save_state(path, tensor(a, b))
        doc = run_converge(state_spec=str(path), min_rank=2)
        weights = np.diag(a.entries).real
        for point in doc["points"]:
            block = weights[: point.rank_a]
            block = block / block.sum()
            expected = -float(np.sum(block * np.log(block)))
            assert point.cond_entropy_nats == pytest.approx(expected, abs=1e-10)
            assert point.h_nk == pytest.approx(0.0, abs=1e-10)

    def test_explicit_schedule_and_skips(self, tmp_path):
        path = tmp_path / "excited.json"
        entries = np.zeros((4, 4), dtype=complex)
        entries[3, 3] = 1.0  # |11><11| on a 2 x 2 layout
        layout_pairs = (("A", 2), ("B", 2))
        save_state(path, DensityMatrix(entries, SubsystemLayout(layout_pairs)))
        doc = run_converge(state_spec=str(path), schedule=[(1, 1), (2, 2)])
        assert doc["summary"]["skipped_steps"] == 1
        assert doc["points"][0].skipped
        assert doc["points"][1].cond_entropy_nats == pytest.approx(0.0, abs=1e-10)

    def test_bad_mode_rejected(self):
        with pytest.raises(PreconditionError):
            run_converge(state_spec="bell", min_rank=1, mode="fourier")

    @pytest.mark.parametrize(
        "options",
        [
            {"schedule": [(2.7, 3.9)]},
            {"schedule": [(True, True)]},
            {"schedule": [(2, 2), (float("nan"), 3)]},
            {"min_rank": 2.5},
            {"min_rank": True},
            {"max_rank": 4.5},
            {"max_rank": float("nan")},
            {"stride": 1.5},
            {"stride": "2"},
        ],
        ids=lambda options: repr(options),
    )
    def test_ranks_must_be_integers(self, options):
        with pytest.raises(ParseError):
            run_converge("tmsv:nbar=1,cutoff=6", **options)

    @pytest.mark.parametrize(
        "options, schedule",
        [
            ({"schedule": [(2.0, np.int64(3))]}, [[2, 3]]),
            ({"min_rank": 4.0, "max_rank": np.int64(6), "stride": 2.0}, [[4, 4], [6, 6]]),
        ],
        ids=["schedule", "bounds"],
    )
    def test_integral_ranks_accepted(self, options, schedule):
        doc = run_converge("tmsv:nbar=1,cutoff=6", **options)
        assert doc["config"]["schedule"] == schedule
        assert all(type(n) is int for pair in doc["config"]["schedule"] for n in pair)
        assert doc == run_converge("tmsv:nbar=1,cutoff=6", schedule=[tuple(p) for p in schedule])

    def test_empty_schedule_rejected(self):
        with pytest.raises(PreconditionError):
            run_converge("tmsv:nbar=1,cutoff=6", schedule=[])


def truncated_geometric_entropy(q, n, cut=0.0):
    """Shannon entropy (nats) of p_k proportional to q^k on k = 0..n-1, over p_k > cut."""
    weights = [q**k for k in range(n)]
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    return -math.fsum(p * math.log(p) for p in probs if p > cut)


def no_densify(monkeypatch):
    def densify(self):
        raise AssertionError("PureState.as_density was called")

    monkeypatch.setattr(PureState, "as_density", densify)


class TestFactoredConverge:
    @pytest.mark.parametrize("mode", PROJECTOR_MODES)
    @pytest.mark.parametrize("spec", ["tmsv:nbar=1,cutoff=30", "tmsv:nbar=10,cutoff=400"])
    def test_schmidt_diagonal_sweep_solves_nothing_per_step(
        self, spec, mode, solve_calls, monkeypatch
    ):
        # a TMSV is held as its Schmidt coefficients: no step forms a Gram
        # matrix or runs an SVD, and no tilde marginal is solved; the eigenbasis
        # family solves each full marginal once, for the basis it rotates into
        no_densify(monkeypatch)
        doc = run_converge(spec, mode=mode)
        assert doc["summary"]["skipped_steps"] == 0
        dim = resolve_state(spec).layout.dim_of("A")
        basis = [("eigh", (dim, dim), False)] * 2 if mode == "eigenbasis" else []
        assert solve_calls == basis

    @pytest.mark.parametrize("spec", ["tmsv:nbar=1,cutoff=30", "tmsv:nbar=10,cutoff=400"])
    def test_schmidt_diagonal_conditional_entropy_solves_nothing(
        self, spec, solve_calls, monkeypatch
    ):
        no_densify(monkeypatch)
        conditional_entropy(resolve_state(spec), "A", "B")
        assert solve_calls == []

    def test_tmsv_cutoff_60_matches_truncated_geometric_entropies(self, monkeypatch):
        # the dense route would solve a 3600 x 3600 joint state at every step
        no_densify(monkeypatch)
        doc = run_converge("tmsv:nbar=1,cutoff=60")
        q = 0.5  # nbar / (nbar + 1)
        assert [p.rank_a for p in doc["points"]] == list(range(5, 61))
        for point in doc["points"]:
            n, value = point.rank_a, point.cond_entropy_nats
            # entropies drop the eigenvalues at or below TAU_SUPP: from rank 37
            # on, Schmidt weights 2^-(k+1) fall below it, and what they carry
            # bounds the gap to the uncut entropy
            assert abs(value + truncated_geometric_entropy(q, n, TAU_SUPP)) <= 1e-10
            uncut = truncated_geometric_entropy(q, n)
            dropped = uncut - truncated_geometric_entropy(q, n, TAU_SUPP)
            assert abs(value + uncut) <= dropped + 1e-10
            assert (dropped > 0.0) == (n >= 37)
            assert abs(point.diff) <= 1e-10
        base = doc["summary"]["base_cond_entropy_nats"]
        assert abs(base + truncated_geometric_entropy(q, 60, TAU_SUPP)) <= 1e-10

    def test_pure_conditional_entropy_is_the_sweeps_full_rank_point(self, monkeypatch):
        # one route: conditional_entropy reads a pure state off its factor as a
        # sweep step does, so the two agree to the bit
        no_densify(monkeypatch)
        spec = "tmsv:nbar=10,cutoff=60"
        doc = run_converge(spec, min_rank=59)
        final = doc["summary"]["final_cond_entropy_nats"]
        assert conditional_entropy(resolve_state(spec), "A", "B") == final

    @pytest.mark.parametrize("mode", ["computational", "eigenbasis"])
    def test_purifier_sweep_matches_the_dense_sweep(self, mode, monkeypatch):
        # C is in neither set: the factor keeps it as its r axis, the dense
        # route traces it out
        dense = conditional_entropy_sweep(
            as_density(resolve_state("ghz:parties=3")), "A", "B", [(1, 1), (2, 2)], mode
        )
        no_densify(monkeypatch)
        doc = run_converge("ghz:parties=3", target="A", given="B", min_rank=1, mode=mode)
        assert len(doc["points"]) == len(dense) == 2
        for point, reference in zip(doc["points"], dense):
            assert (point.rank_a, point.rank_b) == (reference.rank_a, reference.rank_b)
            for field in ("lam", "cond_entropy_nats", "h_nk", "h_tilde_nk", "diff"):
                assert abs(getattr(point, field) - getattr(reference, field)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, target, given, options",
        [
            ("tmsv:nbar=1,cutoff=30", "A", "B", {}),
            ("tmsv:nbar=2,cutoff=12", "A", "B", {"max_rank": 8, "mode": "eigenbasis"}),
            ("bell", "A", "B", {"min_rank": 1, "mode": "eigenbasis"}),
            ("ghz:parties=3", "A", ("B", "C"), {"min_rank": 1}),
            ("ghz:parties=3", "A", ("B", "C"), {"schedule": [(1, 1), (2, 2)]}),
            ("werner:p=0.5", "A", "B", {"min_rank": 1, "mode": "eigenbasis"}),
            ("werner:p=0.5", "A", "B", {"schedule": [(1, 1)]}),
            ("classical", "A", "B", {"min_rank": 1, "mode": "eigenbasis"}),
            ("FILE", ("A", "C"), "B", {"min_rank": 1, "mode": "eigenbasis"}),
            ("FILE", ("A", "C"), "B", {"schedule": [(1, 1), (3, 2)]}),
            # labels in neither set: traced out of a density matrix, a pure
            # state's purifier
            ("FILE", "B", "A", {"min_rank": 1}),
            ("ghz:parties=3", "A", "B", {"min_rank": 1}),
            ("ghz:parties=3", "C", "A", {"min_rank": 1, "mode": "eigenbasis"}),
        ],
    )
    def test_base_value_is_the_full_state_conditional_entropy(
        self, spec, target, given, options, tmp_path
    ):
        if spec == "FILE":
            spec = str(tmp_path / "rand24.json")
            layout = SubsystemLayout([("A", 3), ("B", 4), ("C", 2)])
            save_state(spec, random_density_matrix(24, seed=5, layout=layout))
        doc = run_converge(spec, target=target, given=given, **options)
        # the dense route, which keeps its own eigenvector solves
        expected = conditional_entropy(as_density(resolve_state(spec)), target, given)
        assert abs(doc["summary"]["base_cond_entropy_nats"] - expected) <= 1e-12
        schedule = [tuple(pair) for pair in doc["config"]["schedule"]]
        assert [(p.rank_a, p.rank_b) for p in doc["points"]] == schedule
