"""In-memory span recording and reversible name patching for the traced run.

A span is one wrapped call: its name, start, end, parent span and an
optional annotation (a matrix size, an input digest). Spans are appended to
flat lists while the workload runs and are only summarised or written out
after it ends, so the recorder does no I/O on the hot path.

Self time is a span's duration minus the time its direct children cover.
Calls run on one thread, so children of one span never overlap and that
cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import time
from typing import Any, Callable


class SpanRecorder:
    """Append-only span log with a stack of the spans currently open."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list[Any] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, note: Any = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.notes.append(note)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._open.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        annotate: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``fn``.

        ``annotate(*args, **kwargs)`` runs before the span opens, so its own
        cost is not charged to the span; its result is stored as the note.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            note = annotate(*args, **kwargs) if annotate is not None else None
            index = self.begin(name, note)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped_span__ = name
        return traced

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = self.durations()
        child_cover = [0.0] * len(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_cover[parent] += own[index]
        return [d - c for d, c in zip(own, child_cover)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, inclusive ``s`` and ``self_s``.

        Inclusive time counts only the outermost span of a name on each call
        path, so a function that reaches itself again is not counted twice.
        """
        own = self.durations()
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[index]
            if not self._has_ancestor_named(index, name):
                row["s"] += own[index]
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write_csv_gz(self, path: str) -> None:
        """Write every span as ``index,name,parent,start,end`` (gzip CSV)."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for index, name in enumerate(self.names):
                fh.write(
                    f"{index},{name},{self.parents[index]},"
                    f"{self.starts[index] - t0!r},{self.ends[index] - t0!r}\n"
                )


_MISSING = object()


class Patcher:
    """Rebinds attributes and mapping entries and restores them in reverse order.

    Originals are read from the owner's own ``__dict__`` so that a class's
    ``classmethod`` object, not the bound method, is what gets put back, and
    a name the owner did not define itself is deleted again on restore.
    """

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def setattr(self, owner: Any, name: str, value: Any) -> None:
        original = vars(owner).get(name, _MISSING)
        setattr(owner, name, value)

        def undo() -> None:
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

        self._undo.append(undo)

    def setitem(self, mapping: dict, key: Any, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
