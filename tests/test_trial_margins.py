"""The per-trial tool writes every trial the assembler receives."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

import qentropy.harness as harness
from qentropy.rng import trial_seed

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trial_margins.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("trial_margins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loading_the_tool_leaves_the_environment_alone():
    # the BLAS pin belongs to the tool's own run, not to whoever imports it
    before = dict(os.environ)
    _load_tool()
    assert dict(os.environ) == before


@pytest.mark.parametrize(
    "name", sorted(name for name, check in harness._TRIAL_CHECKS.items() if check.draw)
)
def test_a_small_run_writes_every_trial(tmp_path, name):
    path = _load_tool().write_trials(str(tmp_path), name, 7, trials=3)
    assert os.listdir(tmp_path) == [f"{name}-seed7.json"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    report = harness.run_check(name, seed=7, trials=3)
    assert doc["config"] == json.loads(json.dumps(report.config))
    trials = doc["trials"]
    fixed = len(trials) - 3
    assert [t["trial"] for t in trials[fixed:]] == ["0", "1", "2"]
    assert [t["seed"] for t in trials[fixed:]] == [trial_seed(7, i) for i in range(3)]
    assert all(t["seed"] == 7 and not t["trial"].isdigit() for t in trials[:fixed])
    assert min(t["margin"] for t in trials) == report.worst_margin
    # every record the report keeps is one of the written trials, value for value
    written = {t["trial"]: t for t in trials}
    for record in report.records:
        assert written[record["trial"]] == json.loads(json.dumps(record))
    # the assembler is restored
    assert harness._assemble.__name__ == "_assemble"


def test_the_continuity_run_writes_its_schedule(tmp_path):
    path = _load_tool().write_trials(str(tmp_path), "continuity", 7, steps=3)
    assert os.listdir(tmp_path) == ["continuity-seed7.json"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    report = harness.run_check("continuity", seed=7, steps=3)
    assert doc["config"] == json.loads(json.dumps(report.config))
    # one trial, the schedule, recorded by the report as it was written
    (trial,) = doc["trials"]
    assert [trial] == json.loads(json.dumps(list(report.records)))
    assert [eps for eps, _ in trial["deviations"]] == [0.5, 0.25, 0.125]
    assert harness._assemble.__name__ == "_assemble"
