"""The byte-identity tool's invocations stay valid command lines, and each run
records its outputs, its trials and its replay."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import qentropy.harness as harness
from qentropy import cli
from qentropy.cli import build_parser
from qentropy.fileio import dumps_document

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INVOCATIONS = _load_tool().INVOCATIONS
# argparse's own exits, by invocation name: 0 after help text, 2 on a usage error
PARSER_EXITS = {name: 0 if name.startswith("help") else 2
                for name in INVOCATIONS if name.startswith(("help", "usage-"))}  # fmt: skip


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_every_invocation_parses(name):
    argv = INVOCATIONS[name]
    if name in PARSER_EXITS:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == PARSER_EXITS[name]
    else:
        assert build_parser().parse_args(argv).command == argv[0]


def test_paths_are_relative_and_outputs_do_not_collide():
    outs = []
    for name, argv in INVOCATIONS.items():
        if name in PARSER_EXITS:
            continue
        args = build_parser().parse_args(argv)
        assert not os.path.isabs(getattr(args, "state", "") or "")
        if getattr(args, "out", None):
            assert os.sep not in args.out
            outs.append(args.out)
    assert len(outs) == len(set(outs))
    # the tool's own files are NAME.stdout, NAME.stderr, NAME.exit, NAME.trials and NAME.replay
    own = {"stdout", "stderr", "exit", "trials", "replay"}
    assert not {o.rsplit(".", 1)[-1] for o in outs} & own


def test_loading_the_tool_leaves_the_environment_alone():
    # the BLAS pin belongs to the tool's own run, not to whoever imports it
    before = dict(os.environ)
    _load_tool()
    assert dict(os.environ) == before


SMALL_CHECK = ["check", "--property", "bound", "--trials", "3", "--no-timestamp"]
SMALL_SWEEP = ["converge", "--state", "tmsv:nbar=1,cutoff=6", "--min-rank", "3",
               "--no-timestamp", "--out", "small"]  # fmt: skip


@pytest.mark.parametrize(
    "argv, replay",
    [
        (SMALL_CHECK, "reproduced\n"),
        (SMALL_SWEEP, "reproduced\n"),
        # a failing check embeds its config too
        (["check", "--property", "continuity", "--base", "bell", "--no-timestamp"],
         "reproduced\n"),
        # nothing to replay: a CSV report, and an exit 2 with no output
        ([*SMALL_CHECK, "--format", "csv"], None),
        (["check", "--property", "continuity", "--steps", "54"], None),
    ],
)  # fmt: skip
def test_replay_file_is_written_for_every_embedded_config(tmp_path, monkeypatch, argv, replay):
    tool = _load_tool()
    monkeypatch.chdir(tmp_path)
    tool.write_outputs("small", argv)
    assert {p.suffix for p in tmp_path.iterdir()} >= {".stdout", ".stderr", ".exit"}
    path = tmp_path / "small.replay"
    assert (path.read_text(encoding="utf-8") if path.exists() else None) == replay


@pytest.mark.parametrize(
    "argv, source, edit, field",
    [
        (SMALL_CHECK, "small.stdout", ("reports", 0, "records", 0, "margin"),
         "reports[0].records[0].margin"),
        (SMALL_SWEEP, "small.json", ("summary", "steps"), "summary.steps"),
        (SMALL_SWEEP, "small.json", ("points", 1, "lambda"), "points[1].lambda"),
    ],
)  # fmt: skip
def test_replay_names_the_first_field_that_differs(
    tmp_path, monkeypatch, argv, source, edit, field
):
    tool = _load_tool()
    monkeypatch.chdir(tmp_path)
    tool.write_outputs("small", argv)
    doc = json.loads((tmp_path / source).read_text(encoding="utf-8"))
    *parents, last = edit
    target = doc
    for key in parents:
        target = target[key]
    target[last] = 0.5 if target[last] != 0.5 else 0.25
    assert tool.replay(dumps_document(doc)) == field + "\n"


def test_replay_records_the_error_a_replay_raises():
    doc = {"kind": "sweep", "config": {"state": "bell"}}
    assert _load_tool().replay(dumps_document(doc)).startswith("raised PreconditionError: ")


def _run(tmp_path, monkeypatch, argv):
    """Run ``argv`` through the tool in ``tmp_path``; its NAME.* files by suffix."""
    tool = _load_tool()
    monkeypatch.chdir(tmp_path)
    assert tool.write_outputs("run", argv) is False
    return {p.suffix[1:]: p.read_text(encoding="utf-8") for p in tmp_path.glob("run.*")}


@pytest.mark.parametrize(
    "name", sorted(name for name, check in harness._TRIAL_CHECKS.items() if check.draw)
)
def test_every_trial_of_a_random_check_is_recorded(tmp_path, monkeypatch, name):
    argv = ["check", "--property", name, "--trials", "3", "--seed", "7", "--no-timestamp"]
    files = _run(tmp_path, monkeypatch, argv)
    (entry,) = json.loads(files["trials"])
    report = harness.run_check(name, seed=7, trials=3)
    assert entry["config"] == json.loads(json.dumps(report.config))
    trials = entry["trials"]
    fixed = len(trials) - 3
    assert [t["trial"] for t in trials[fixed:]] == ["0", "1", "2"]
    # a random trial is labelled, and seeded, by its index
    assert [t["seed"] for t in trials[fixed:]] == [0, 1, 2]
    assert all(t["seed"] == 7 and not t["trial"].isdigit() for t in trials[:fixed])
    assert min(t["margin"] for t in trials) == report.worst_margin
    # every record the report keeps is one of the written trials, value for value
    written = {t["trial"]: t for t in trials}
    for record in report.records:
        assert written[record["trial"]] == json.loads(json.dumps(record))
    assert harness._assemble.__name__ == "_assemble"


def test_the_continuity_run_records_its_schedule(tmp_path, monkeypatch):
    argv = ["check", "--property", "continuity", "--steps", "3", "--seed", "7", "--no-timestamp"]
    (entry,) = json.loads(_run(tmp_path, monkeypatch, argv)["trials"])
    report = harness.run_check("continuity", seed=7, steps=3)
    assert entry["config"] == json.loads(json.dumps(report.config))
    # one trial, the schedule, recorded by the report as it was written
    (trial,) = entry["trials"]
    assert [trial] == json.loads(json.dumps(list(report.records)))
    assert [eps for eps, _ in trial["deviations"]] == [0.5, 0.25, 0.125]
    assert harness._assemble.__name__ == "_assemble"


@pytest.mark.parametrize(
    "argv, reports",
    [
        # every format and every exit code that reaches the assembler
        ([*SMALL_CHECK, "--format", "csv"], 1),
        (["check", "--property", "continuity", "--base", "bell", "--no-timestamp"], 1),
        (["check", "--seed", "3", "--format", "csv", "--no-timestamp"], len(harness.CHECKS)),
        # nothing reaches it: a sweep, a computation, and an exit 2 before any trial
        (SMALL_SWEEP, None),
        (["compute", "entropy", "bell", "--no-timestamp"], None),
        (["check", "--property", "continuity", "--steps", "54"], None),
    ],
)  # fmt: skip
def test_trials_are_written_for_every_check_that_reaches_the_assembler(
    tmp_path, monkeypatch, argv, reports
):
    files = _run(tmp_path, monkeypatch, argv)
    assert (len(json.loads(files["trials"])) if "trials" in files else None) == reports


def test_the_replay_adds_no_report_to_the_trials(tmp_path, monkeypatch):
    files = _run(tmp_path, monkeypatch, SMALL_CHECK)
    assert files["replay"] == "reproduced\n"
    (entry,) = json.loads(files["trials"])
    assert entry["config"]["property"] == "bound"


@pytest.mark.parametrize(
    "argv, code, stream, start",
    [
        (["--help"], 0, "stdout", "usage: qentropy "),
        (["converge", "--help"], 0, "stdout", "usage: qentropy converge "),
        (["check", "--trials", "x"], 2, "stderr", "usage: qentropy check "),
    ],
)
def test_argparse_exits_are_recorded(tmp_path, monkeypatch, argv, code, stream, start):
    files = _run(tmp_path, monkeypatch, argv)
    assert files["exit"] == f"{code}\n"
    assert files[stream].startswith(start)
    assert set(files) == {"stdout", "stderr", "exit"}
    if code == 2:
        assert files["stdout"] == ""
        assert files["stderr"].splitlines()[-1].startswith("qentropy check: error: argument")


def test_a_raising_invocation_fails_the_run_after_every_file_is_written(
    tmp_path, monkeypatch, capsys
):
    tool = _load_tool()

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "converge", boom)
    monkeypatch.setattr(tool, "INVOCATIONS", {
        "raises": ["converge", "--no-timestamp", "--out", "raises"],
        "after": ["compute", "entropy", "bell", "--no-timestamp"],
    })  # fmt: skip
    # main pins its environment, rewrites sys.path and enters OUTDIR: all undone afterwards
    for key in tool.PINNED_ENV:
        monkeypatch.setenv(key, os.environ.get(key, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    assert tool.main(["out"]) == 1
    assert "RuntimeError: boom" in capsys.readouterr().err
    out = tmp_path / "out"
    assert (out / "raises.exit").read_text(encoding="utf-8") == "1\n"
    assert (out / "raises.stdout").read_text(encoding="utf-8") == ""
    assert (out / "after.exit").read_text(encoding="utf-8") == "0\n"
