"""Span recorder arithmetic, nesting, and restoring patched names.

Run with ``python3 -m pytest perfbench/tests``.
"""

import io
from contextlib import redirect_stdout
from itertools import count

import numpy as np
import pytest

from layers import instrument, layer_metrics
from spans import Patcher, SpanRecorder


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder(clock=ticking_clock([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 10.0]))
    outer = rec.begin("outer")  # 0
    child = rec.begin("child")  # 1
    grand = rec.begin("grand")  # 2
    rec.end(grand)  # 3.5
    rec.end(child)  # 4
    other = rec.begin("child")  # 5
    rec.end(other)  # 6
    rec.end(outer)  # 10
    assert rec.parents == [-1, outer, child, outer]
    assert rec.durations() == [10.0, 3.0, 1.5, 1.0]
    assert rec.self_times() == [6.0, 1.5, 1.5, 1.0]
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert summary["child"] == {"calls": 2, "s": 4.0, "self_s": 2.5}
    assert summary["grand"] == {"calls": 1, "s": 1.5, "self_s": 1.5}


def test_recursive_span_counts_inclusive_time_once():
    rec = SpanRecorder(clock=ticking_clock([0.0, 1.0, 3.0, 4.0]))
    a = rec.begin("f")
    b = rec.begin("f")
    rec.end(b)
    rec.end(a)
    row = rec.summary()["f"]
    assert row["calls"] == 2
    assert row["s"] == 4.0  # the outer call only
    assert row["self_s"] == 4.0  # 2 (outer minus inner) + 2 (inner)


def test_wrap_nests_returns_and_closes_on_error():
    rec = SpanRecorder(clock=lambda c=count(): float(next(c)))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    traced_leaf = rec.wrap(leaf, "leaf", annotate=lambda x: ("arg", x))

    def branch(x):
        return traced_leaf(x) + traced_leaf(x + 1)

    traced_branch = rec.wrap(branch, "branch")
    assert traced_branch(3) == 14
    assert rec.names == ["branch", "leaf", "leaf"]
    assert rec.parents == [-1, 0, 0]
    assert rec.notes[1:] == [("arg", 3), ("arg", 4)]
    assert traced_leaf.__name__ == "leaf"

    with pytest.raises(ValueError):
        traced_branch(-5)
    assert rec.names[-2:] == ["branch", "leaf"]
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))
    # the failed calls were closed, so a new top-level span has no parent
    rec.begin("after")
    assert rec.parents[-1] == -1


def test_end_out_of_order_is_an_error():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


class Holder:
    @classmethod
    def make(cls):
        return cls.__name__


def test_patcher_restores_attributes_classmethods_and_items():
    import types

    mod = types.ModuleType("m")
    mod.f = lambda: "original"
    table = {"k": "v"}
    original_raw = vars(Holder)["make"]
    with Patcher() as patcher:
        patcher.setattr(mod, "f", lambda: "patched")
        patcher.setattr(mod, "f", lambda: "patched twice")
        patcher.setattr(mod, "added", 1)
        patcher.setattr(Holder, "make", classmethod(lambda cls: "patched"))
        patcher.setitem(table, "k", "w")
        assert mod.f() == "patched twice" and Holder.make() == "patched" and table["k"] == "w"
    assert mod.f() == "original"
    assert not hasattr(mod, "added")
    assert vars(Holder)["make"] is original_raw and Holder.make() == "Holder"
    assert table == {"k": "v"}


def _namespace_snapshot():
    import importlib

    from layers import MODULES

    mods = [importlib.import_module("qentropy")]
    mods += [importlib.import_module(f"qentropy.{name}") for name in MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    checks = dict(importlib.import_module("qentropy.harness").CHECKS)
    seq = importlib.import_module("qentropy.truncation").ProjectorSequence
    return snap, checks, dict(vars(seq)), (np.linalg.eigh, np.linalg.eigvalsh)


def test_instrument_traces_library_and_restores_every_name():
    import qentropy.cli as cli

    before = _namespace_snapshot()
    rec = SpanRecorder()
    with Patcher() as patcher:
        assert instrument(rec, patcher) > 0
        assert np.linalg.eigh is not before[3][0]
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["compute", "condent", "werner:p=0.5", "--no-timestamp"])
    assert rc == 0
    after = _namespace_snapshot()
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    assert after[1:3] == before[1:3] and after[3] == before[3]

    assert rec.names[0] == "cli.main" and rec.parents[0] == -1
    summary = rec.summary()
    # cli imported conditional_entropy by name; the traced binding is the one it called
    assert summary["entropy.conditional_entropy"]["calls"] == 1
    assert summary["harness.resolve_state"]["calls"] == 1
    assert summary["catalog.build_state"]["calls"] == 1
    metrics = layer_metrics(rec)
    assert metrics["kernel.eigh.calls"] == metrics["states.clamped_spectrum.calls"] > 0
    assert metrics["kernel.eigh.calls.le16"] == metrics["kernel.eigh.calls"]
    assert 0 < metrics["states.clamped_spectrum.unique_ratio"] <= 1
    assert metrics["trace.spans"] == len(rec)
