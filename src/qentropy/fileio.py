"""Reading and writing states, channels, and results as plain text documents.

States and channels travel as JSON with explicit shape metadata; complex
entries are stored as two-element [real, imag] arrays so the files stay
readable and round-trip exactly. Extended-real values serialize as the
strings "inf", "-inf", and "nan" because JSON has no literals for them.

Sweep tables are written as CSV with a fixed column order:
``schedule_index,rank_A,rank_B,lambda,cond_entropy_nats,h_nk,h_tilde_nk,diff``.
Floats are rendered with ``repr`` (shortest round-trip form), so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .channels import KrausChannel
from .errors import ParseError
from .states import DensityMatrix, SubsystemLayout
from .truncation import SweepPoint

STATE_KIND = "density_matrix"
CHANNEL_KIND = "channel"

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


def json_real(value: Any) -> float:
    """Inverse of the non-finite float encoding used by :func:`json_ready`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return float(value)


def dumps_document(obj: Any) -> str:
    return json.dumps(json_ready(obj), indent=2, sort_keys=True) + "\n"


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


def _dimension(value: Any, field: str, context: str) -> int:
    """A document's dimension entry as an int; a bool, a fraction or a non-number raises."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ParseError(f"{context}: {field} must be an integer, got {value!r}")
    return int(value)


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
    dims = [_dimension(d, "dims", context) for d in dims]
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
    dim_in = _dimension(_require(doc, "dim_in", context), "dim_in", context)
    dim_out = _dimension(_require(doc, "dim_out", context), "dim_out", context)
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


def _load_json(path: str | Path, context: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{context}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{context}: not valid JSON ({exc})") from exc


def load_state(path: str | Path) -> DensityMatrix:
    return state_from_document(_load_json(path, str(path)), context=str(path))


def save_state(path: str | Path, rho: DensityMatrix) -> None:
    Path(path).write_text(dumps_document(state_to_document(rho)))


def load_channel(path: str | Path) -> KrausChannel:
    return channel_from_document(_load_json(path, str(path)), context=str(path))


def save_channel(path: str | Path, channel: KrausChannel) -> None:
    Path(path).write_text(dumps_document(channel_to_document(channel)))


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_rows(points: Iterable[SweepPoint]) -> list[dict[str, Any]]:
    return [
        {
            "schedule_index": p.schedule_index,
            "rank_A": p.rank_a,
            "rank_B": p.rank_b,
            "lambda": p.lam,
            "cond_entropy_nats": p.cond_entropy_nats,
            "h_nk": p.h_nk,
            "h_tilde_nk": p.h_tilde_nk,
            "diff": p.diff,
        }
        for p in points
    ]


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in sweep_rows(points):
        writer.writerow([_csv_cell(row[col]) for col in SWEEP_COLUMNS])
    return buf.getvalue()


def save_sweep_csv(path: str | Path, points: Sequence[SweepPoint]) -> None:
    Path(path).write_text(sweep_to_csv(points))


__all__ = [
    "SWEEP_COLUMNS",
    "complex_to_pairs",
    "pairs_to_complex",
    "json_ready",
    "json_real",
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
    "save_sweep_csv",
]
