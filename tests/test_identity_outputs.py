"""The byte-identity tool's invocations stay valid command lines."""

import importlib.util
import os
from pathlib import Path

import pytest

from qentropy.cli import build_parser

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
    # the tool's own files are NAME.stdout and NAME.exit
    assert not {o.rsplit(".", 1)[-1] for o in outs} & {"stdout", "exit"}


def test_loading_the_tool_leaves_the_environment_alone():
    # the BLAS pin belongs to the tool's own run, not to whoever imports it
    before = dict(os.environ)
    _load_tool()
    assert dict(os.environ) == before
