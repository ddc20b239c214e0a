"""Reading and writing states, channels, and results as plain text documents.

States and channels travel as JSON with explicit shape metadata; complex
entries are stored as two-element [real, imag] arrays so the files
round-trip exactly. State files are written compact, without indentation or
spaces, which at 576 x 576 more than halves the time to write them; any
JSON layout reads back the same. Extended-real values serialize as the
strings "inf", "-inf", and "nan" because JSON has no literals for them.

Files are read a row at a time. The top-level object is parsed by json's
Python parser, and each element of an array it holds (a row of ``data``, a
matrix of ``kraus``) by json's C scanner, then turned into a float64 array
at once; an element that does not convert stays a list. So at most one row
of Python floats and pair lists is alive at a time, and loading a file
peaks at about twice its size in memory (the text plus the arrays), where
a whole-document ``json.loads`` peaked at about four times. json still
parses every number, so the grammar, the duplicate-key rule (the last key
wins) and the error messages are json's. The one place the result can
differ from ``json.loads`` is an array nested inside ``labels`` or ``dims``:
it too comes back as a float array, so such a label reads as that array's
text, and such a dim is rejected with the array in the message.

Sweep tables are rendered as CSV text (:func:`sweep_to_csv`) with a fixed
column order:
``schedule_index,rank_A,rank_B,lambda,cond_entropy_nats,h_nk,h_tilde_nk,diff``.
Floats are rendered with ``repr`` (shortest round-trip form), so identical
runs produce byte-identical files. Result documents and tables are rendered
here as text; the command line writes them, every file before stdout.
"""

from __future__ import annotations

import csv
import io
import json
import json.decoder
import json.scanner
import math
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .channels import KrausChannel
from .errors import ParseError, as_integer
from .states import DensityMatrix, SubsystemLayout
from .truncation import SweepPoint

STATE_KIND = "density_matrix"
CHANNEL_KIND = "channel"

# one column per SweepPoint field, in field order
SWEEP_COLUMNS = (
    "schedule_index",
    "rank_A",
    "rank_B",
    "lambda",
    "cond_entropy_nats",
    "h_nk",
    "h_tilde_nk",
    "diff",
)


def complex_to_pairs(arr: np.ndarray) -> list:
    """Nested lists with a trailing [real, imag] axis."""
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data: Any, context: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=np.float64)
    except OverflowError as exc:
        raise ParseError(f"{context}: an entry is too large for a float ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{context}: entries must be numeric [real, imag] pairs") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ParseError(f"{context}: entries must be [real, imag] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def json_ready(value: Any) -> Any:
    """Recursively rewrite a value so json.dumps can emit it deterministically.

    Handles numpy scalars/arrays, non-finite floats (as the strings "inf",
    "-inf", "nan"), dataclass-free dicts, lists, and tuples.
    """
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return json_ready(value.tolist())
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return value


def dumps_document(obj: Any) -> str:
    return json.dumps(json_ready(obj), indent=2, sort_keys=True) + "\n"


def _dumps_compact(ready: Any) -> str:
    return json.dumps(ready, separators=(",", ":"), sort_keys=True) + "\n"


def state_to_document(rho: DensityMatrix) -> dict:
    return {
        "kind": STATE_KIND,
        "labels": list(rho.layout.labels),
        "dims": list(rho.layout.dims),
        "data": complex_to_pairs(rho.entries),
    }


def _require(doc: dict, field: str, context: str) -> Any:
    if field not in doc:
        raise ParseError(f"{context}: missing field {field!r}")
    return doc[field]


def state_from_document(doc: Any, context: str = "state document") -> DensityMatrix:
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected a JSON object")
    kind = doc.get("kind", STATE_KIND)
    if kind != STATE_KIND:
        raise ParseError(f"{context}: kind {kind!r} is not {STATE_KIND!r}")
    labels = _require(doc, "labels", context)
    dims = _require(doc, "dims", context)
    data = _require(doc, "data", context)
    if not isinstance(labels, list) or not isinstance(dims, list) or len(labels) != len(dims):
        raise ParseError(f"{context}: labels and dims must be lists of equal length")
    dims = [as_integer(d, f"{context}: dims") for d in dims]
    try:
        layout = SubsystemLayout(list(zip(labels, dims)))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{context}: bad layout: {exc}") from exc
    entries = pairs_to_complex(data, context)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ParseError(f"{context}: data must be a square matrix of pairs")
    if entries.shape[0] != layout.total_dim:
        raise ParseError(
            f"{context}: data is {entries.shape[0]}x{entries.shape[1]} but dims "
            f"{dims} give total dimension {layout.total_dim}"
        )
    return DensityMatrix(entries, layout)


def channel_to_document(channel: KrausChannel) -> dict:
    return {
        "kind": CHANNEL_KIND,
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [complex_to_pairs(k) for k in channel.kraus_ops],
    }


def channel_from_document(doc: Any, context: str = "channel document") -> KrausChannel:
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected a JSON object")
    kind = doc.get("kind", CHANNEL_KIND)
    if kind != CHANNEL_KIND:
        raise ParseError(f"{context}: kind {kind!r} is not {CHANNEL_KIND!r}")
    dim_in = as_integer(_require(doc, "dim_in", context), f"{context}: dim_in")
    dim_out = as_integer(_require(doc, "dim_out", context), f"{context}: dim_out")
    kraus_raw = _require(doc, "kraus", context)
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise ParseError(f"{context}: kraus must be a nonempty list of matrices")
    ops = []
    for i, item in enumerate(kraus_raw):
        k = pairs_to_complex(item, f"{context}: kraus[{i}]")
        if k.ndim != 2 or k.shape != (dim_out, dim_in):
            raise ParseError(
                f"{context}: kraus[{i}] has shape {k.shape}, expected ({dim_out}, {dim_in})"
            )
        if not np.isfinite(k).all():
            raise ParseError(f"{context}: kraus[{i}] has non-finite entries")
        ops.append(k)
    return KrausChannel(ops)


class _RowDecoder(json.JSONDecoder):
    """A JSON decoder that turns each element of an array held by an object
    into a float64 array as soon as json's C scanner has parsed it (see the
    module docstring); an element that is not an array, or does not convert,
    is kept as parsed."""

    def __init__(self) -> None:
        super().__init__()
        scan_element = json.scanner.make_scanner(json.JSONDecoder())

        def scan_row(text: str, idx: int) -> tuple[Any, int]:
            value, end = scan_element(text, idx)
            if isinstance(value, list):
                try:
                    value = np.array(value, dtype=np.float64)
                except (TypeError, ValueError, OverflowError):
                    pass
            return value, end

        def parse_array(text_and_end: tuple[str, int], _scan: Any) -> tuple[list, int]:
            return json.decoder.JSONArray(text_and_end, scan_row)

        self.parse_array = parse_array
        self.scan_once = json.scanner.py_make_scanner(self)


def _load_json(path: str | Path, context: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), cls=_RowDecoder)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{context}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError, an integer literal past Python's digit limit,
        # or arrays nested deeper than the interpreter's recursion limit
        raise ParseError(f"{context}: not valid JSON ({exc})") from exc


def load_state(path: str | Path) -> DensityMatrix:
    return state_from_document(_load_json(path, str(path)), context=str(path))


def save_state(path: str | Path, rho: DensityMatrix) -> None:
    doc = state_to_document(rho)
    # finite entries are already plain floats, so json_ready would only re-walk them
    ready = doc if np.isfinite(rho.entries).all() else json_ready(doc)
    Path(path).write_text(_dumps_compact(ready))


def load_channel(path: str | Path) -> KrausChannel:
    return channel_from_document(_load_json(path, str(path)), context=str(path))


def save_channel(path: str | Path, channel: KrausChannel) -> None:
    Path(path).write_text(dumps_document(channel_to_document(channel)))


def _csv_table(columns: Sequence[str], rows: Iterable[dict[str, Any]]) -> str:
    """A header line and one line per row, the cells in ``columns`` order: a
    float as its ``repr``, None as an empty cell, anything else as ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in (row[c] for c in columns)])
    return buf.getvalue()


_point_fields = attrgetter(*(f.name for f in fields(SweepPoint)))


def sweep_rows(points: Iterable[SweepPoint]) -> list[dict[str, Any]]:
    return [dict(zip(SWEEP_COLUMNS, _point_fields(p), strict=True)) for p in points]


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    return _csv_table(SWEEP_COLUMNS, sweep_rows(points))


__all__ = [
    "SWEEP_COLUMNS",
    "complex_to_pairs",
    "pairs_to_complex",
    "json_ready",
    "dumps_document",
    "state_to_document",
    "state_from_document",
    "channel_to_document",
    "channel_from_document",
    "load_state",
    "save_state",
    "load_channel",
    "save_channel",
    "sweep_rows",
    "sweep_to_csv",
]
