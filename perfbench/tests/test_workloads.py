"""Oracles and the BENCHMARK.json tables agree with the benchmark code."""

import json
import math
from pathlib import Path

import pytest

import run
from layers import PER_LAYER
from workloads import WORKLOADS, conditional_entropy_oracle, truncated_geometric_entropy

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_truncated_geometric_entropy_limits():
    assert truncated_geometric_entropy(0.5, 1) == 0.0
    assert truncated_geometric_entropy(1.0, 4) == pytest.approx(math.log(4.0), abs=1e-15)
    third = 1.0 / 3.0
    assert truncated_geometric_entropy(0.5, 2) == pytest.approx(
        -(2 * third) * math.log(2 * third) - third * math.log(third), abs=1e-15
    )
    # nbar = 1 thermal entropy is 2 ln 2; the tail beyond 60 levels is ~1e-16
    assert truncated_geometric_entropy(0.5, 60) == pytest.approx(2.0 * math.log(2.0), abs=1e-13)


def test_conditional_entropy_oracle_on_bell_and_product(tmp_path):
    from qentropy.catalog import bell, build_state
    from qentropy.fileio import save_state
    from qentropy.states import as_density

    save_state(tmp_path / "bell.json", as_density(bell(2)))
    assert conditional_entropy_oracle(tmp_path / "bell.json") == pytest.approx(-math.log(2.0), abs=1e-12)
    save_state(tmp_path / "cc.json", build_state("classical:dim=2"))
    assert conditional_entropy_oracle(tmp_path / "cc.json") == pytest.approx(0.0, abs=1e-12)


def _sweep_files(out, points):
    out.with_suffix(".json").write_text(json.dumps({"points": points, "summary": {}}))
    out.with_suffix(".csv").write_text("header\n" + "row\n" * len(points))


def test_tmsv_check_counts_each_point_and_flags_a_wrong_one(tmp_path):
    q = 0.5
    points = [
        {"rank_A": n, "rank_B": n, "cond_entropy_nats": -truncated_geometric_entropy(q, n), "diff": 0.0}
        for n in range(5, 31)
    ]
    out = tmp_path / "out"
    _sweep_files(out, points)
    ok = WORKLOADS["tmsv-sweep"].check(0, out)
    assert (ok.attempted, ok.failed, ok.work) == (26, 0, 26)

    points[3]["cond_entropy_nats"] += 1e-8
    points[7]["diff"] = "nan"
    del points[10]
    _sweep_files(out, points)
    bad = WORKLOADS["tmsv-sweep"].check(0, out)
    assert bad.failed == 4 and bad.attempted == 27  # 3 bad or missing points + the count mismatch
    assert WORKLOADS["tmsv-sweep"].check(2, out).failed == 26
