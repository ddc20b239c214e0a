"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from qentropy.channels import KrausChannel
from qentropy.fileio import SWEEP_COLUMNS, save_channel, save_state
from qentropy.states import DensityMatrix, SubsystemLayout, single

LN2 = np.log(2.0)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qentropy", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def run_json(*args, cwd=None):
    proc = run_cli(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCheckCommand:
    def test_single_property_passes(self):
        proc = run_cli("check", "--property", "bound", "--trials", "50", "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "check"
        assert doc["all_pass"] is True
        (report,) = doc["reports"]
        assert report["property"] == "bound"
        assert report["verdict"] == "pass"
        assert report["units"] == "nats"
        assert "timestamp" not in doc

    def test_failing_property_exits_one(self):
        # a pure base state leaves the continuity deviation above tolerance
        proc = run_cli("check", "--property", "continuity", "--base", "bell")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["all_pass"] is False
        assert doc["reports"][0]["verdict"] == "fail"

    def test_overrides_require_single_property(self):
        proc = run_cli("check", "--trials", "10")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_unknown_property_rejected(self):
        proc = run_cli("check", "--property", "unitarity")
        assert proc.returncode == 2

    def test_csv_format(self):
        proc = run_cli(
            "check", "--property", "duality", "--trials", "20", "--format", "csv"
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "property,verdict,trials,seed,tolerance,worst_margin,worst_seed"
        assert len(lines) == 2
        assert lines[1].startswith("duality,pass,")

    def test_no_timestamp_is_deterministic(self, tmp_path):
        args = ("check", "--property", "concavity", "--trials", "25", "--no-timestamp")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "check",
            "--property",
            "monotonicity",
            "--trials",
            "20",
            "--no-timestamp",
            "--out",
            str(out),
        )
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == proc.stdout

    def test_replayed_config_reproduces_report(self):
        # the embedded config plus the library API reproduce the CLI's numbers
        doc = run_json(
            "check", "--property", "subadditivity", "--trials", "12", "--no-timestamp"
        )
        from qentropy.fileio import dumps_document
        from qentropy.harness import replay_report, report_to_dict

        (report,) = doc["reports"]
        again = report_to_dict(replay_report(report["config"]))
        assert dumps_document(again) == dumps_document(report)


class TestCheckParameters:
    def test_every_declared_parameter_is_forwarded_from_a_check_flag(self, monkeypatch, capsys):
        from qentropy import cli
        from qentropy.errors import PreconditionError
        from qentropy.harness import _PARAMETERS

        calls = []

        def record(name, **overrides):
            calls.append((name, overrides))
            raise PreconditionError("recorded")

        monkeypatch.setattr(cli, "run_check", record)
        values = {"dims": ("2,2", (2, 2)), "base": ("bell", "bell"), "tolerance": ("0.5", 0.5)}
        for name, declared in _PARAMETERS.items():
            for key in declared:
                text, value = values.get(key, ("4", 4))
                flag = "--" + key.replace("_", "-")
                assert cli.main(["check", "--property", name, flag, text]) == 2
                # --seed is always forwarded; a later key of the same name wins
                assert calls.pop() == (name, {"seed": 0, key: value})
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["--property", "concavity", "--dims", "2,2", "--trials", "3", "--seed", "5"],
             {"name": "concavity", "dims": (2, 2), "trials": 3, "seed": 5}),
            (["--property", "coherent-duality", "--env-dim", "2", "--trials", "2",
              "--tolerance", "1e-6"],
             {"name": "coherent-duality", "env_dim": 2, "trials": 2, "tolerance": 1e-6}),
            (["--property", "continuity", "--base", "bell", "--steps", "4", "--seed", "2"],
             {"name": "continuity", "base": "bell", "steps": 4, "seed": 2}),
        ],
    )  # fmt: skip
    def test_cli_and_library_give_the_same_config(self, capsys, argv, overrides):
        from qentropy import cli
        from qentropy.fileio import dumps_document
        from qentropy.harness import report_to_dict, run_check

        assert cli.main(["check", *argv, "--no-timestamp"]) in (0, 1)
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        overrides = dict(overrides)
        library = report_to_dict(run_check(overrides.pop("name"), **overrides))
        assert report == json.loads(dumps_document(library))


class TestConvergeCommand:
    def test_writes_both_files_and_converges(self, tmp_path):
        base = tmp_path / "run"
        proc = run_cli(
            "converge",
            "--state",
            "tmsv:nbar=1,cutoff=8",
            "--min-rank",
            "2",
            "--out",
            str(base),
            "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "sweep"
        assert (tmp_path / "run.json").exists()
        assert (tmp_path / "run.csv").exists()
        assert json.loads((tmp_path / "run.json").read_text(encoding="utf-8")) == doc
        csv_lines = (tmp_path / "run.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(csv_lines) == 1 + len(doc["points"])
        assert abs(doc["summary"]["final_gap_to_base"]) <= 1e-9

    def test_csv_format_prints_rows(self, tmp_path):
        base = tmp_path / "run"
        proc = run_cli(
            "converge",
            "--state",
            "tmsv:nbar=1,cutoff=6",
            "--min-rank",
            "3",
            "--format",
            "csv",
            "--out",
            str(base),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_csv_format_renders_the_table_once(self, tmp_path, monkeypatch, capsys):
        # stdout prints the text save_sweep_csv wrote, not a second rendering;
        # a cli that rendered the table again would call its own import of it
        from qentropy import cli, fileio

        calls = []
        render = fileio.sweep_to_csv

        def counted(points):
            calls.append(1)
            return render(points)

        monkeypatch.setattr(fileio, "sweep_to_csv", counted)
        monkeypatch.setattr(cli, "sweep_to_csv", counted, raising=False)
        base = tmp_path / "run"
        argv = ["converge", "--state", "tmsv:nbar=1,cutoff=6", "--min-rank", "3",
                "--format", "csv", "--out", str(base)]  # fmt: skip
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (tmp_path / "run.csv").read_text(encoding="utf-8")

    def test_state_file_input(self, tmp_path):
        path = tmp_path / "bell.json"
        from qentropy.catalog import bell
        from qentropy.states import as_density

        save_state(path, as_density(bell(2)))
        base = tmp_path / "bellrun"
        proc = run_cli(
            "converge",
            "--state",
            str(path),
            "--min-rank",
            "1",
            "--out",
            str(base),
            "--no-timestamp",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        final = doc["points"][-1]
        assert final["cond_entropy_nats"] == pytest.approx(-LN2, abs=1e-10)

    def test_min_rank_clamped_to_factor_dimension(self, tmp_path):
        # the default min rank may exceed a small state's factor dimension;
        # the schedule starts at full rank instead of erroring
        base = tmp_path / "clamped"
        proc = run_cli(
            "converge", "--state", "bell", "--min-rank", "9", "--out", str(base),
            "--no-timestamp",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert [p["rank_A"] for p in doc["points"]] == [2]

    def test_explicit_max_rank_out_of_range(self, tmp_path):
        base = tmp_path / "over"
        proc = run_cli(
            "converge", "--state", "bell", "--max-rank", "9", "--out", str(base)
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestComputeCommand:
    def test_entropy_of_truncated_thermal(self):
        doc = run_json("compute", "entropy", "thermal:nbar=1,cutoff=40", "--no-timestamp")
        assert doc["kind"] == "compute"
        assert doc["quantity"] == "entropy"
        assert doc["units"] == "nats"
        assert doc["value"] == pytest.approx(2 * LN2, abs=1e-6)
        assert doc["inputs"]["state"] == "thermal:nbar=1,cutoff=40"

    def test_conditional_entropy_in_bits(self):
        doc = run_json("compute", "condent", "bell", "--bits", "--no-timestamp")
        assert doc["units"] == "bits"
        assert doc["value"] == pytest.approx(-1.0, abs=1e-9)
        assert doc["inputs"]["target"] == ["A"]
        assert doc["inputs"]["given"] == ["B"]

    def test_condent_default_split_on_three_parties(self):
        doc = run_json("compute", "condent", "ghz", "--no-timestamp")
        assert doc["inputs"]["target"] == ["A"]
        assert doc["inputs"]["given"] == ["B", "C"]
        assert doc["value"] == pytest.approx(-LN2, abs=1e-9)

    def test_condent_explicit_labels(self):
        doc = run_json(
            "compute",
            "condent",
            "classical:dim=3",
            "--target",
            "A",
            "--given",
            "B",
            "--no-timestamp",
        )
        assert doc["value"] == pytest.approx(0.0, abs=1e-9)

    def test_target_without_given_rejected(self):
        proc = run_cli("compute", "condent", "bell", "--target", "A")
        assert proc.returncode == 2
        assert "together" in proc.stderr

    def test_relent_identical_states_zero(self):
        doc = run_json("compute", "relent", "werner:p=0.3", "werner:p=0.3", "--no-timestamp")
        assert doc["value"] == pytest.approx(0.0, abs=1e-10)
        assert doc["min_supported_sigma_eigenvalue"] > 0

    def test_relent_disjoint_support_is_inf_string(self, tmp_path):
        ground = tmp_path / "ground.json"
        excited = tmp_path / "excited.json"
        save_state(ground, DensityMatrix(np.diag([1.0, 0.0]), single("A", 2)))
        save_state(excited, DensityMatrix(np.diag([0.0, 1.0]), single("A", 2)))
        doc = run_json("compute", "relent", str(ground), str(excited), "--no-timestamp")
        assert doc["value"] == "inf"
        assert doc["min_supported_sigma_eigenvalue"] == pytest.approx(1.0, abs=1e-12)

    def test_relent_solves_each_state_once(self, tmp_path, monkeypatch, capsys):
        # rho values-only, sigma with vectors; sigma's smallest supported
        # eigenvalue is read off the spectrum the divergence used
        from qentropy import cli
        from qentropy.states import random_density_matrix

        rho = tmp_path / "rand576.json"
        sigma = tmp_path / "rand576-indent2.json"
        square = SubsystemLayout((("A", 24), ("B", 24)))
        save_state(rho, random_density_matrix(576, seed=201, layout=square))
        sigma.write_text(json.dumps(json.loads(rho.read_text()), indent=2), encoding="utf-8")
        solves = []
        for kind in ("eigh", "eigvalsh"):

            def counted(m, *args, _kind=kind, _solve=getattr(np.linalg, kind), **kwargs):
                solves.append((_kind, m.shape))
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, kind, counted)
        argv = ["compute", "relent", str(rho), str(sigma), "--no-timestamp"]
        assert cli.main(argv) == 0
        assert sorted(solves) == [("eigh", (576, 576)), ("eigvalsh", (576, 576))]
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.0, abs=1e-10)
        assert doc["min_supported_sigma_eigenvalue"] > 0

    def test_relent_needs_sigma(self):
        proc = run_cli("compute", "relent", "bell")
        assert proc.returncode == 2

    def test_entropy_rejects_sigma(self):
        proc = run_cli("compute", "entropy", "bell", "bell")
        assert proc.returncode == 2

    def test_mutinfo_between_groups(self):
        doc = run_json("compute", "mutinfo", "bell", "--no-timestamp")
        assert doc["value"] == pytest.approx(2 * LN2, abs=1e-9)

    def test_mutinfo_through_channel(self, tmp_path):
        chan = tmp_path / "identity.json"
        save_channel(chan, KrausChannel([np.eye(4, dtype=complex)]))
        doc = run_json(
            "compute",
            "mutinfo",
            "classical:dim=2",
            "--channel",
            str(chan),
            "--no-timestamp",
        )
        # identity channel: mutual information is twice the input entropy
        assert doc["value"] == pytest.approx(2 * LN2, abs=1e-9)

    def test_cohinfo_identity_channel(self, tmp_path):
        chan = tmp_path / "identity2.json"
        save_channel(chan, KrausChannel([np.eye(2, dtype=complex)]))
        doc = run_json(
            "compute",
            "cohinfo",
            "thermal:nbar=1,cutoff=2",
            "--channel",
            str(chan),
            "--no-timestamp",
        )
        # identity channel: coherent information equals the input entropy;
        # cutoff-2 thermal weights are (2/3, 1/3)
        expected = np.log(3.0) - (2.0 / 3.0) * LN2
        assert doc["value"] == pytest.approx(expected, abs=1e-10)

    def test_cohinfo_needs_channel(self):
        proc = run_cli("compute", "cohinfo", "bell")
        assert proc.returncode == 2

    def test_non_trace_preserving_channel_rejected(self, tmp_path):
        chan = tmp_path / "half.json"
        save_channel(chan, KrausChannel([0.5 * np.eye(2, dtype=complex)]))
        proc = run_cli("compute", "cohinfo", "thermal:nbar=1,cutoff=2", "--channel", str(chan))
        assert proc.returncode == 2
        assert "trace" in proc.stderr

    def test_compute_out_file(self, tmp_path):
        out = tmp_path / "value.json"
        proc = run_cli(
            "compute", "entropy", "werner:p=0.5", "--no-timestamp", "--out", str(out)
        )
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == proc.stdout


def truncated_thermal_entropy(q, cutoff):
    weights = q ** np.arange(cutoff)
    weights /= weights.sum()
    return float(-np.sum(weights * np.log(weights)))


# pure catalog states and their marginal entropy S(A) across A | rest
PURE_SPECS = {
    "bell": LN2,
    "ghz:parties=3": LN2,
    "tmsv:nbar=1,cutoff=8": truncated_thermal_entropy(0.5, 8),
}
# spec and label options -> (H(target|given), I(target:given)). The default
# split is A | rest, across which the state is pure; with --target C --given A,
# GHZ's B purifies the classically correlated pair C, A
PURE_CASES = {
    **{spec: (-s_a, 2.0 * s_a) for spec, s_a in PURE_SPECS.items()},
    "ghz:parties=3 --target C --given A": (0.0, LN2),
}


class TestPureStateCompute:
    """``compute`` reads a pure catalog state off its amplitudes, in process."""

    @staticmethod
    def value(capsys, *args):
        from qentropy import cli

        assert cli.main(["compute", *args, "--no-timestamp"]) == 0
        return json.loads(capsys.readouterr().out)["value"]

    @pytest.mark.parametrize("spec", sorted(PURE_SPECS))
    def test_entropy_is_exactly_zero(self, spec, capsys):
        assert self.value(capsys, "entropy", spec) == 0.0

    @pytest.mark.parametrize("case", sorted(PURE_CASES))
    def test_no_quantity_densifies(self, case, capsys, monkeypatch):
        from qentropy.states import PureState

        def densify(self):
            raise AssertionError("a pure state was densified")

        monkeypatch.setattr(PureState, "as_density", densify)
        spec, *labels = case.split()
        h_cond, info = PURE_CASES[case]
        assert self.value(capsys, "entropy", spec) == 0.0
        assert abs(self.value(capsys, "condent", spec, *labels) - h_cond) <= 1e-12
        assert abs(self.value(capsys, "mutinfo", spec, *labels) - info) <= 1e-12


class TestErrorReporting:
    def test_missing_state_file(self):
        proc = run_cli("compute", "entropy", "no-such-state.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_malformed_state_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        proc = run_cli("compute", "entropy", str(path))
        assert proc.returncode == 2
        assert "broken.json" in proc.stderr

    def test_invalid_state_file(self, tmp_path):
        path = tmp_path / "unnormalized.json"
        save_state(path, DensityMatrix(np.diag([0.9, 0.9]), single("A", 2)))
        proc = run_cli("compute", "entropy", str(path))
        assert proc.returncode == 2
        assert "unit_trace" in proc.stderr

    def test_unknown_catalog_family(self):
        proc = run_cli("compute", "entropy", "squeezed-cat")
        assert proc.returncode == 2
        assert "unknown state family" in proc.stderr

    def test_bad_parameter_value(self):
        proc = run_cli("compute", "entropy", "werner:p=abc")
        assert proc.returncode == 2

    def test_no_arguments_shows_usage(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "check" in proc.stdout
        assert "converge" in proc.stdout
        assert "compute" in proc.stdout


class TestMalformedInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--property", "formula-standard", "--trials", "0"),
            ("check", "--property", "bound", "--trials", "0"),
            ("check", "--property", "bound", "--trials", "-5"),
            ("check", "--property", "duality", "--env-dim", "3"),
            ("check", "--property", "continuity", "--trials", "3"),
            ("check", "--property", "continuity", "--steps", "1"),
            ("check", "--property", "concavity", "--dims", "2,2,2"),
            ("check", "--property", "bound", "--tolerance", "nan"),
            ("compute", "entropy", "thermal:nbar=nan"),
            ("compute", "condent", "tmsv:nbar=nan"),
            ("compute", "condent", "tmsv:nbar=inf"),
            ("compute", "entropy", "thermal:nbar=1,cutoff=2.9"),
            ("converge", "--state", "tmsv:nbar=1,cutoff=8.6", "--out", "unused"),
            ("check", "--property", "concavity", "--dims", "0,2"),
            # sinh(1e3) overflows a float
            ("compute", "condent", "tmsv:r=1e3,cutoff=4"),
            # layouts (2, 2) and (4,): equal total dimension, different subsystems
            ("compute", "relent", "bell", "thermal:nbar=1,cutoff=4"),
        ],
    )
    def test_exits_two_with_error_line(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_out_of_memory_exits_two(self, monkeypatch, capsys):
        # a builder whose array cannot be allocated, without allocating one
        from qentropy import catalog, cli

        def too_big(dim=2):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setitem(catalog.CATALOG, "bell", too_big)
        assert cli.main(["compute", "entropy", "bell:dim=100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 74.5 GiB for an array\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "case",
        ["check-out-dir", "state-dir", "channel-dir", "non-utf8-state", "fractional-dims",
         "huge-entry", "huge-entry-converge"],
    )  # fmt: skip
    def test_unusable_file_exits_two(self, tmp_path, case):
        state = {"kind": "density_matrix", "labels": ["A"], "dims": [2],
                 "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}  # fmt: skip
        path = tmp_path / "state.json"
        if case == "non-utf8-state":
            state["labels"] = ["\u00e9"]
            path.write_bytes(json.dumps(state, ensure_ascii=False).encode("latin-1"))
        elif case == "fractional-dims":
            state["dims"] = [2.7]
            path.write_text(json.dumps(state), encoding="utf-8")
        elif case.startswith("huge-entry"):
            # an integer json reads but no float can hold
            state["data"][0][0][0] = 10**400
            path.write_text(json.dumps(state), encoding="utf-8")
        folder = str(tmp_path)
        args = {
            "check-out-dir": ("check", "--property", "bound", "--trials", "1", "--out", folder),
            "state-dir": ("compute", "entropy", folder),
            "channel-dir": ("compute", "cohinfo", "bell", "--channel", folder),
            "huge-entry-converge": ("converge", "--state", str(path), "--out", folder + "/run"),
        }.get(case, ("compute", "entropy", str(path)))
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "case", ["check-dir", "converge-missing-dir", "converge-csv-dir", "compute-dir"]
    )
    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys, case):
        from qentropy import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(cli, "run_check", no_work)
        monkeypatch.setattr(cli, "run_converge", no_work)
        monkeypatch.setattr(cli, "resolve_state", no_work)
        (tmp_path / "base.csv").mkdir()
        argv = {
            "check-dir": ["check", "--out", str(tmp_path)],
            "converge-missing-dir": ["converge", "--out", str(tmp_path / "missing" / "base")],
            "converge-csv-dir": ["converge", "--out", str(tmp_path / "base")],
            "compute-dir": ["compute", "entropy", "bell", "--out", str(tmp_path)],
        }[case]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.csv"]

    @pytest.mark.parametrize(
        "args",
        [
            ("compute", "condent", "bell", "--channel", "nothere.json"),
            ("compute", "entropy", "bell", "--target", "A", "--given", "B"),
            ("compute", "mutinfo", "bell", "--channel", "id4.json", "--target", "A",
             "--given", "B"),
            ("compute", "cohinfo", "bell", "--channel", "id4.json", "--target", "A",
             "--given", "B"),
            ("compute", "relent", "bell", "bell", "--channel", "id4.json"),
        ],
    )  # fmt: skip
    def test_input_the_quantity_does_not_take(self, tmp_path, capsys, args):
        # rejected before any file is opened: nothere.json does not exist, and
        # id4.json is a valid identity channel on bell's four dimensions
        from qentropy import cli

        save_channel(tmp_path / "id4.json", KrausChannel([np.eye(4, dtype=complex)]))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {args[1]} takes ")
        assert captured.out == ""

    @staticmethod
    def many_subsystems(tmp_path, n):
        # the trivial state on n one-dimensional subsystems A, B, S2, ...
        layout = SubsystemLayout((lab, 1) for lab in ["A", "B", *(f"S{i}" for i in range(2, n))])
        path = tmp_path / f"many{n}.json"
        save_state(path, DensityMatrix(np.ones((1, 1)), layout))
        return str(path)

    @pytest.mark.parametrize("command", ["compute", "converge"])
    def test_more_subsystems_than_numpy_axes_exit_two(self, tmp_path, capsys, command):
        # 40 subsystems make 80 matrix axes, past numpy's 64
        from qentropy import cli

        path = self.many_subsystems(tmp_path, 40)
        argv = {
            "compute": ["compute", "condent", path],
            "converge": ["converge", "--state", path, "--out", str(tmp_path / "run")],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "40 subsystems" in captured.err
        assert captured.out == ""

    def test_twenty_seven_subsystems_run(self, tmp_path, capsys):
        # 54 matrix axes, within numpy's 64
        from qentropy import cli

        path = self.many_subsystems(tmp_path, 27)
        assert cli.main(["compute", "condent", path, "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0
        run = str(tmp_path / "run")
        assert cli.main(["converge", "--state", path, "--no-timestamp", "--out", run]) == 0
        (point,) = json.loads(capsys.readouterr().out)["points"]
        assert point["cond_entropy_nats"] == 0.0

    def test_non_finite_state_file(self, tmp_path):
        path = tmp_path / "nan.json"
        doc = {"kind": "density_matrix", "labels": ["A"], "dims": [2],
               "data": [[["nan", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}  # fmt: skip
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("compute", "entropy", str(path))
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_channel_file(self, tmp_path):
        path = tmp_path / "nan_channel.json"
        save_channel(path, KrausChannel([np.eye(2)]))
        path.write_text(path.read_text().replace("1.0", "NaN", 1), encoding="utf-8")
        proc = run_cli("compute", "cohinfo", "thermal:nbar=1,cutoff=2", "--channel", str(path))
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_importing_the_cli_does_not_load_numpy_random():
    # numpy.random costs about 5 MB and is needed only once a check draws states
    code = "import sys, qentropy.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr
