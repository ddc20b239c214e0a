"""Tests for on-disk state/channel documents, JSON hygiene, and sweep CSV output."""

import dataclasses
import json
import math

import numpy as np
import pytest

from qentropy.channels import KrausChannel, random_channel
from qentropy.errors import ParseError
from qentropy.fileio import (
    CHANNEL_KIND,
    STATE_KIND,
    SWEEP_COLUMNS,
    channel_from_document,
    channel_to_document,
    complex_to_pairs,
    dumps_document,
    json_ready,
    load_channel,
    load_state,
    pairs_to_complex,
    save_channel,
    save_state,
    state_from_document,
    state_to_document,
    sweep_rows,
    sweep_to_csv,
)
from qentropy.states import DensityMatrix, SubsystemLayout, random_density_matrix, single
from qentropy.truncation import SweepPoint


def sample_points():
    return [
        SweepPoint(
            schedule_index=0,
            rank_a=1,
            rank_b=1,
            lam=0.0,
            cond_entropy_nats=None,
            h_nk=None,
            h_tilde_nk=None,
            diff=None,
        ),
        SweepPoint(
            schedule_index=1,
            rank_a=2,
            rank_b=3,
            lam=0.75,
            cond_entropy_nats=-0.5,
            h_nk=1.25,
            h_tilde_nk=1.5,
            diff=0.25,
        ),
    ]


class TestComplexPairs:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pairs = complex_to_pairs(m)
        back = pairs_to_complex(pairs, context="test")
        assert np.array_equal(back, m)

    def test_pairs_are_plain_lists(self):
        pairs = complex_to_pairs(np.array([[1.0 + 2.0j]]))
        assert pairs == [[[1.0, 2.0]]]


class TestJsonHygiene:
    def test_non_finite_floats_become_strings(self):
        doc = json_ready({"a": math.inf, "b": -math.inf, "c": math.nan})
        assert doc == {"a": "inf", "b": "-inf", "c": "nan"}

    def test_numpy_scalars_normalized(self):
        doc = json_ready({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
        assert doc == {"i": 3, "f": 0.25, "b": True}
        assert isinstance(doc["i"], int)
        assert isinstance(doc["f"], float)

    def test_dumps_document_deterministic_and_terminated(self):
        text = dumps_document({"b": 1, "a": [math.inf]})
        assert text == dumps_document({"a": [math.inf], "b": 1})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": ["inf"], "b": 1}
        # reports keep the two-space indent
        assert text == '{\n  "a": [\n    "inf"\n  ],\n  "b": 1\n}\n'

    def test_float_precision_preserved(self):
        value = 0.1 + 0.2  # not representable as a short decimal
        text = dumps_document({"x": value})
        assert json.loads(text)["x"] == value


class TestStateDocuments:
    def test_round_trip_bit_exact(self):
        layout = SubsystemLayout((("A", 2), ("B", 3)))
        rho = random_density_matrix(6, seed=3, layout=layout)
        doc = state_to_document(rho)
        assert doc["kind"] == STATE_KIND
        back = state_from_document(doc, context="test")
        assert back.layout.subsystems == rho.layout.subsystems
        assert np.array_equal(back.entries, rho.entries)

    def test_round_trip_through_json_text(self):
        rho = random_density_matrix(4, seed=4)
        text = dumps_document(state_to_document(rho))
        back = state_from_document(json.loads(text), context="test")
        assert np.array_equal(back.entries, rho.entries)

    def test_wrong_kind_rejected(self):
        doc = state_to_document(random_density_matrix(2, seed=0))
        doc["kind"] = "bogus"
        with pytest.raises(ParseError):
            state_from_document(doc, context="test")

    def test_missing_field_rejected_with_context(self):
        doc = state_to_document(random_density_matrix(2, seed=0))
        del doc["dims"]
        with pytest.raises(ParseError, match="somefile"):
            state_from_document(doc, context="somefile")

    def test_shape_mismatch_rejected(self):
        doc = state_to_document(random_density_matrix(2, seed=0))
        doc["dims"] = [3]
        with pytest.raises(ParseError):
            state_from_document(doc, context="test")

    def test_label_dim_count_mismatch_rejected(self):
        doc = state_to_document(random_density_matrix(2, seed=0))
        doc["labels"] = ["A", "B"]
        with pytest.raises(ParseError):
            state_from_document(doc, context="test")

    def test_save_load_files(self, tmp_path):
        path = tmp_path / "state.json"
        rho = random_density_matrix(3, seed=5, layout=single("Q", 3))
        save_state(path, rho)
        back = load_state(path)
        assert back.layout.labels == ("Q",)
        assert np.array_equal(back.entries, rho.entries)

    @pytest.mark.parametrize("bad", [None, math.inf, -math.inf, math.nan])
    def test_saved_bytes_match_the_document_dump(self, tmp_path, bad):
        # finite states skip json_ready's walk; non-finite ones need its strings
        layout = SubsystemLayout([("A", 2), ("B", 3)])
        entries = random_density_matrix(6, seed=3, layout=layout).entries.copy()
        entries[1, 0] = -0.0
        if bad is not None:
            entries[2, 4] = complex(bad, 0.5)
        rho = DensityMatrix(entries, layout)
        path = tmp_path / "state.json"
        save_state(path, rho)
        compact = json.dumps(
            json_ready(state_to_document(rho)), separators=(",", ":"), sort_keys=True
        )
        assert path.read_text() == compact + "\n"
        assert "\n" not in path.read_text()[:-1] and " " not in path.read_text()

    def test_indented_state_files_still_load(self, tmp_path):
        # state files were written with a two-space indent before they were compact
        layout = SubsystemLayout([("A", 2), ("B", 3)])
        rho = random_density_matrix(6, seed=3, layout=layout)
        indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
        indented.write_text(json.dumps(state_to_document(rho), indent=2, sort_keys=True) + "\n")
        save_state(compact, rho)
        assert indented.stat().st_size > compact.stat().st_size
        for path in (indented, compact):
            back = load_state(path)
            assert back.layout == rho.layout
            assert np.array_equal(back.entries, rho.entries)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="broken.json"):
            load_state(path)

    @pytest.mark.parametrize("bad", [2.7, True, "2", None, [2], float("nan")])
    def test_non_integer_dims_rejected(self, bad):
        doc = state_to_document(random_density_matrix(2, seed=0))
        doc["dims"] = [bad]
        with pytest.raises(ParseError, match="dims must be an integer"):
            state_from_document(doc, context="test")

    def test_integral_float_dims_accepted(self):
        rho = random_density_matrix(2, seed=0)
        doc = state_to_document(rho)
        doc["dims"] = [2.0]
        assert np.array_equal(state_from_document(doc, context="test").entries, rho.entries)

    def test_load_rejects_non_utf8_text(self, tmp_path):
        path = tmp_path / "latin1.json"
        doc = state_to_document(random_density_matrix(2, seed=0, layout=single("\u00e9", 2)))
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.json: not UTF-8"):
            load_state(path)

    def test_structural_only_no_physics_gate(self, tmp_path):
        # fileio round-trips any square matrix; physical validation is a
        # separate explicit step
        path = tmp_path / "unnormalized.json"
        bad = DensityMatrix(np.diag([0.9, 0.9]).astype(complex), single("A", 2))
        save_state(path, bad)
        back = load_state(path)
        assert np.array_equal(back.entries, bad.entries)


class TestChannelDocuments:
    def test_round_trip_bit_exact(self):
        ch = random_channel(3, 2, 4, seed=7)
        doc = channel_to_document(ch)
        assert doc["kind"] == CHANNEL_KIND
        back = channel_from_document(doc, context="test")
        assert back.dim_in == 3
        assert back.dim_out == 2
        assert back.env_dim == 4
        for ka, kb in zip(ch.kraus_ops, back.kraus_ops):
            assert np.array_equal(ka, kb)

    def test_save_load_files(self, tmp_path):
        path = tmp_path / "channel.json"
        ch = random_channel(2, 2, 2, seed=8)
        save_channel(path, ch)
        back = load_channel(path)
        assert back.completeness_defect() <= 1e-12

    def test_wrong_kind_rejected(self):
        doc = channel_to_document(random_channel(2, 2, 2, seed=0))
        doc["kind"] = STATE_KIND
        with pytest.raises(ParseError):
            channel_from_document(doc, context="test")

    def test_kraus_shape_mismatch_rejected(self):
        doc = channel_to_document(random_channel(2, 2, 2, seed=0))
        doc["dim_out"] = 5
        with pytest.raises(ParseError):
            channel_from_document(doc, context="test")

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    @pytest.mark.parametrize("bad", ["x", None, 2.5, False])
    def test_non_integer_dims_rejected(self, field, bad):
        doc = channel_to_document(random_channel(2, 2, 2, seed=0))
        doc[field] = bad
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            channel_from_document(doc, context="test")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_kraus_entry_rejected(self, bad):
        doc = channel_to_document(random_channel(2, 2, 2, seed=0))
        doc["kraus"][1][0][1][0] = bad
        with pytest.raises(ParseError, match=r"kraus\[1\] has non-finite"):
            channel_from_document(doc, context="test")

    def test_non_trace_preserving_loads_structurally(self, tmp_path):
        # structural load succeeds; trace preservation is checked separately
        path = tmp_path / "halving.json"
        save_channel(path, KrausChannel([0.5 * np.eye(2, dtype=complex)]))
        back = load_channel(path)
        assert back.completeness_defect() > 0.1


class TestSweepSerialization:
    def test_one_column_per_point_field_in_order(self):
        names = [f.name for f in dataclasses.fields(SweepPoint)]
        assert dict(zip(SWEEP_COLUMNS, names, strict=True)) == {
            "schedule_index": "schedule_index",
            "rank_A": "rank_a",
            "rank_B": "rank_b",
            "lambda": "lam",
            "cond_entropy_nats": "cond_entropy_nats",
            "h_nk": "h_nk",
            "h_tilde_nk": "h_tilde_nk",
            "diff": "diff",
        }

    def test_rows_match_columns(self):
        rows = sweep_rows(sample_points())
        for row in rows:
            assert tuple(row.keys()) == SWEEP_COLUMNS

    def test_csv_header_and_nulls(self):
        text = sweep_to_csv(sample_points())
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        # the skipped row has empty entropy cells
        first = lines[1].split(",")
        assert first[4] == first[5] == first[6] == first[7] == ""

    def test_csv_floats_round_trip(self):
        text = sweep_to_csv(sample_points())
        cells = text.splitlines()[2].split(",")
        assert float(cells[3]) == 0.75
        assert float(cells[4]) == -0.5
