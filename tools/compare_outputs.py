"""Compare two output directories of tools/identity_outputs.py within an agreement bound.

    python3 tools/compare_outputs.py OLD_OUT NEW_OUT

Lists the files that are byte-identical. Each file that differs is read as
JSON if its text parses as JSON, and as CSV otherwise; for it, the largest
absolute difference of every float field is reported. A field is a JSON
path with list indices dropped (``points[].h_nk``) or a CSV column name.
Integers (a JSON integer, or a CSV cell written as one) are counts, ranks,
indices and seeds, not rounded values: they must match exactly, and each
one that moved is reported as ``field: old -> new``. Every other value (a
key, a string, a bool, null, an empty CSV cell, the number of points or
rows) must match exactly too.

Exits 0 when every numeric gap is at most :data:`BOUND` and nothing else
differs, 1 otherwise, and 2 on a usage error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import signal
import sys
from pathlib import Path
from typing import Any

BOUND = 1e-12  # nats


class Comparison:
    """Per-field largest float gaps, moved integers and structural differences of one file."""

    def __init__(self) -> None:
        self.gaps: dict[str, float] = {}
        self.moved: list[str] = []
        self.problems: list[str] = []

    def number(self, field: str, old: int | float, new: int | float) -> None:
        if isinstance(old, int) or isinstance(new, int):
            if type(old) is not type(new) or old != new:
                self.moved.append(f"{field}: {old!r} -> {new!r}")
            return
        if math.isfinite(old) and math.isfinite(new):
            gap = abs(old - new)
        else:  # qentropy writes non-finite values as strings, but CSV cells may read as inf
            gap = 0.0 if repr(old) == repr(new) else math.inf
        self.gaps[field] = max(self.gaps.get(field, 0.0), gap)

    def mismatch(self, field: str, old: Any, new: Any) -> None:
        self.problems.append(f"{field or '<top>'}: {old!r} != {new!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(old: Any, new: Any, field: str, out: Comparison) -> None:
    if _is_number(old) and _is_number(new):
        out.number(field, old, new)
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            out.mismatch(f"{field} keys", sorted(old), sorted(new))
            return
        for key in old:
            compare_json(old[key], new[key], f"{field}.{key}" if field else key, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.mismatch(f"{field} length", len(old), len(new))
            return
        for a, b in zip(old, new):
            compare_json(a, b, f"{field}[]", out)
    elif type(old) is not type(new) or old != new:
        out.mismatch(field, old, new)


def _cell_number(cell: str) -> int | float | None:
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def compare_csv(old: str, new: str, out: Comparison) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(old_rows) != len(new_rows):
        out.mismatch("rows", len(old_rows), len(new_rows))
        return
    header = old_rows[0] if old_rows else []
    for row, (a, b) in enumerate(zip(old_rows, new_rows)):
        if len(a) != len(b):
            out.mismatch(f"row {row} length", len(a), len(b))
            continue
        for col, (x, y) in enumerate(zip(a, b)):
            field = header[col] if col < len(header) else f"column {col}"
            nx, ny = _cell_number(x), _cell_number(y)
            if nx is not None and ny is not None:
                out.number(field, nx, ny)
            elif x != y:
                out.mismatch(f"row {row} {field}", x, y)


def compare_text(old: str, new: str) -> Comparison:
    out = Comparison()
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        compare_csv(old, new, out)
    else:
        compare_json(old_doc, new_doc, "", out)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(__doc__, file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(d) for d in argv)
    old_names = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_names = {p.name for p in new_dir.iterdir() if p.is_file()}
    failed = False
    for name in sorted(old_names ^ new_names):
        print(f"only in {old_dir if name in old_names else new_dir}: {name}")
        failed = True
    identical, worst = [], 0.0
    for name in sorted(old_names & new_names):
        old, new = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
        if old == new:
            identical.append(name)
            continue
        result = compare_text(old.decode("utf-8"), new.decode("utf-8"))
        print(f"differs: {name}")
        for problem in result.problems:
            print(f"  structure  {problem}")
        for moved in result.moved:
            print(f"  moved      {moved}")
        for field, gap in sorted(result.gaps.items()):
            if gap > 0.0:
                print(f"  {gap:.3e}  {field}")
        worst = max([worst, *result.gaps.values()])
        failed = failed or bool(result.problems or result.moved)
    print(f"byte-identical: {len(identical)} files")
    for name in identical:
        print(f"  {name}")
    failed = failed or worst > BOUND
    print(f"largest numeric gap {worst:.3e} (bound {BOUND:g}): {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    # end quietly, as diff does, when a reader such as head closes the pipe early
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
