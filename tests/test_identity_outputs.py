"""The byte-identity tool's invocations stay valid command lines."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from qentropy.cli import build_parser
from qentropy.fileio import dumps_document

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INVOCATIONS = _load_tool().INVOCATIONS


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_every_invocation_parses(name):
    argv = INVOCATIONS[name]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_paths_are_relative_and_outputs_do_not_collide():
    outs = []
    for argv in INVOCATIONS.values():
        args = build_parser().parse_args(argv)
        assert not os.path.isabs(getattr(args, "state", "") or "")
        if getattr(args, "out", None):
            assert os.sep not in args.out
            outs.append(args.out)
    assert len(outs) == len(set(outs))
    # the tool's own files are NAME.stdout, NAME.stderr, NAME.exit and NAME.replay
    assert not {o.rsplit(".", 1)[-1] for o in outs} & {"stdout", "stderr", "exit", "replay"}


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
