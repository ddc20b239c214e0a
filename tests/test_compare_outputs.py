"""The agreement tool tells rounding from structural change."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load_tool()

SWEEP = {
    "summary": {"base_cond_entropy_nats": -1.0, "final_gap_to_base": 0.0, "steps": 2},
    "points": [
        {"rank_A": 1, "h_nk": None, "cond_entropy_nats": None},
        {"rank_A": 2, "h_nk": 0.5, "cond_entropy_nats": -1.0},
    ],
    "config": {"mode": "computational"},
}
CSV = "schedule_index,rank_A,lambda,h_nk\n0,1,0.5,\n1,2,1.0,0.25\n"


def _write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory)


def _run(tmp_path, old, new, capsys):
    code = compare_outputs.main([_write(tmp_path / "old", old), _write(tmp_path / "new", new)])
    return code, capsys.readouterr().out


def _edited(**changes):
    doc = json.loads(json.dumps(SWEEP))
    for path, value in changes.items():
        *parents, leaf = path.split("__")
        target = doc
        for key in parents:
            target = target[int(key)] if key.isdigit() else target[key]
        if value is KeyError:
            del target[leaf]
        else:
            target[leaf] = value
    return json.dumps(doc)


def test_identical_directories_pass_and_list_every_file(tmp_path, capsys):
    files = {"a.json": json.dumps(SWEEP), "a.csv": CSV, "a.exit": "0\n"}
    code, out = _run(tmp_path, files, files, capsys)
    assert code == 0
    assert "byte-identical: 3 files" in out
    assert all(f"  {name}" in out for name in files)


def test_rounding_gaps_pass_and_are_reported_per_field(tmp_path, capsys):
    old = {"s.json": json.dumps(SWEEP), "s.csv": CSV}
    new = {
        "s.json": _edited(points__1__h_nk=0.5 + 3e-16, summary__final_gap_to_base=2e-15),
        "s.csv": CSV.replace("0.25", "0.25000000000000006"),
    }
    code, out = _run(tmp_path, old, new, capsys)
    assert code == 0
    assert "differs: s.json" in out and "differs: s.csv" in out
    assert "points[].h_nk" in out and "summary.final_gap_to_base" in out
    assert "2.000e-15" in out
    assert "ok" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "new",
    [
        _edited(points__1__h_nk=0.5 + 2e-12),  # a numeric gap above the bound
        _edited(points__0__h_nk=0.0),  # a null became a number
        _edited(summary__steps=KeyError),  # a key went missing
        _edited(config__mode="eigenbasis"),  # a string changed
        json.dumps({**SWEEP, "points": SWEEP["points"][:1]}),  # a point went missing
        _edited(summary__base_cond_entropy_nats="-inf"),  # a number became non-finite
    ],
    ids=["gap", "null", "key", "string", "points", "non-finite"],
)
def test_structural_or_large_differences_fail(tmp_path, capsys, new):
    code, out = _run(tmp_path, {"s.json": json.dumps(SWEEP)}, {"s.json": new}, capsys)
    assert code == 1
    assert "FAIL" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "new",
    [
        CSV.replace("0.5,\n", "0.5,0.0\n"),  # an empty cell became a number
        CSV + "2,3,1.0,0.125\n",  # an extra row
        CSV.replace("1.0,0.25", "1.0,0.2500001"),  # a numeric gap above the bound
    ],
    ids=["empty-cell", "row", "gap"],
)
def test_csv_differences_fail(tmp_path, capsys, new):
    code, _ = _run(tmp_path, {"s.csv": CSV}, {"s.csv": new}, capsys)
    assert code == 1


@pytest.mark.parametrize(
    "new, moved",
    [
        (_edited(summary__steps=3), "summary.steps: 2 -> 3"),
        (_edited(points__1__rank_A=1), "points[].rank_A: 2 -> 1"),
        (_edited(summary__steps=2.0), "summary.steps: 2 -> 2.0"),  # an integer became a float
    ],
    ids=["count", "rank", "type"],
)
def test_integers_compare_exactly_and_report_the_move(tmp_path, capsys, new, moved):
    # an integer is a count, rank, index or seed: a move of 1 is not rounding,
    # however it compares with the float bound
    code, out = _run(tmp_path, {"s.json": json.dumps(SWEEP)}, {"s.json": new}, capsys)
    assert code == 1
    assert f"  moved      {moved}" in out
    assert "FAIL" in out.splitlines()[-1]


def test_large_integers_compare_exactly(tmp_path, capsys):
    # seeds beyond 2**53 are distinct integers that are equal as floats
    old = {"s.json": json.dumps({"worst_seed": 2**60 + 1})}
    new = {"s.json": json.dumps({"worst_seed": 2**60})}
    code, out = _run(tmp_path, old, new, capsys)
    assert code == 1
    assert f"worst_seed: {2**60 + 1} -> {2**60}" in out


def test_csv_integer_cells_compare_exactly(tmp_path, capsys):
    code, out = _run(tmp_path, {"s.csv": CSV}, {"s.csv": CSV.replace("\n1,2,", "\n2,2,")}, capsys)
    assert code == 1
    assert "  moved      schedule_index: 1 -> 2" in out


def test_a_file_on_one_side_only_fails(tmp_path, capsys):
    code, out = _run(tmp_path, {"a.exit": "0\n"}, {"a.exit": "0\n", "b.exit": "0\n"}, capsys)
    assert code == 1
    assert "b.exit" in out


def test_usage_error_exits_2(tmp_path, capsys):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2


def test_a_reader_that_closes_early_ends_it_quietly(tmp_path):
    # like diff piped into head: the listing outgrows the pipe, the reader
    # stops after one line, and the tool must not print a traceback
    files = {f"identical-output-file-{i:05d}.stdout": "{}\n" for i in range(3000)}
    old, new = _write(tmp_path / "old", files), _write(tmp_path / "new", files)
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), old, new], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert stderr == b"", stderr.decode()
