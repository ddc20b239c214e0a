"""The row-at-a-time file loader against a whole-document ``json.loads``.

The reference below is how state and channel files were read before rows
were parsed one at a time: ``json.loads`` on the whole text, then the same
document functions. Every case must give the same entry bits, or the same
error with the same message.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qentropy.channels import random_channel
from qentropy.errors import ParseError
from qentropy.fileio import (
    channel_from_document,
    channel_to_document,
    json_ready,
    load_channel,
    load_state,
    save_state,
    state_from_document,
)
from qentropy.states import SubsystemLayout, random_density_matrix

# an infinite entry times 1j makes a NaN part on both routes
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    # one folder for every drawn case: hypothesis runs each test many times
    return tmp_path_factory.mktemp("row-decoder")


def _reference_load(path, from_document):
    context = str(path)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{context}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{context}: not valid JSON ({exc})") from exc
    return from_document(doc, context)


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes(), arr.shape


def _outcome(load, path):
    """What loading ``path`` gives: the loaded object's layout and entry bits,
    or the type and message of the error it raises."""
    try:
        obj = load(path)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc).__name__, str(exc)
    if hasattr(obj, "kraus_ops"):
        return "channel", obj.dim_in, obj.dim_out, [_bits(k) for k in obj.kraus_ops]
    return "state", obj.layout, _bits(obj.entries)


# --- documents -------------------------------------------------------------

_ENTRY_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-300, 5e-324, 1.7976931348623157e308]),
    st.integers(-(10**6), 10**6),
)
# a non-finite entry as the file format writes it, or as a JSON extension literal
_NON_FINITE = st.sampled_from(["inf", "-inf", "nan", math.inf, -math.inf, math.nan])
_ENTRY = st.one_of(_ENTRY_FLOATS, _ENTRY_FLOATS, _ENTRY_FLOATS, _NON_FINITE)
# what a mutation may drop in for an entry
_ODD_VALUE = st.sampled_from([True, False, None, "x", "1.5", [], [1.0], {}, 10**400])


def _matrix(rows, cols):
    pair = st.lists(_ENTRY, min_size=2, max_size=2)
    return st.lists(st.lists(pair, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def state_fields(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    n = math.prod(dims)
    return {
        "kind": "density_matrix",
        "labels": ["ABC"[i] for i in range(len(dims))],
        "dims": dims,
        "data": draw(_matrix(n, n)),
    }


@st.composite
def channel_fields(draw):
    dim_in, dim_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {
        "kind": "channel",
        "dim_in": dim_in,
        "dim_out": dim_out,
        "kraus": draw(st.lists(_matrix(dim_out, dim_in), min_size=1, max_size=3)),
    }


def _poke(draw, matrix):
    """A copy of a nested list with one entry, pair or row replaced or cut."""
    rows = [[list(p) for p in row] for row in matrix]
    if not rows or not rows[0]:
        return rows
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    how = draw(st.sampled_from(["value", "ragged-row", "ragged-pair", "nested", "scalar-row"]))
    if how == "value":
        rows[i][j][draw(st.integers(0, 1))] = draw(_ODD_VALUE)
    elif how == "ragged-row":
        del rows[i][j]
    elif how == "ragged-pair":
        rows[i][j] = rows[i][j][:1] + draw(st.lists(_ENTRY, max_size=1))
    elif how == "nested":
        rows[i][j] = [rows[i][j]]
    else:
        rows[i] = draw(_ENTRY)
    return rows


@st.composite
def mutated_fields(draw, fields, matrices):
    """Fields of a document, maybe with its matrix data made malformed."""
    doc = draw(fields)
    how = draw(st.sampled_from(["none", "none", "poke", "nested", "scalar", "odd"]))
    if how == "poke":
        if matrices == "data":
            doc["data"] = _poke(draw, doc["data"])
        else:
            k = draw(st.integers(0, len(doc["kraus"]) - 1))
            doc["kraus"][k] = _poke(draw, doc["kraus"][k])
    elif how == "nested":
        doc[matrices] = [doc[matrices]]
    elif how == "scalar":
        doc[matrices] = draw(st.one_of(_ENTRY, _ODD_VALUE))
    elif how == "odd":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_ODD_VALUE)
    return doc


@st.composite
def document_texts(draw, fields, matrices):
    """JSON text for a document, in a drawn layout: indentation, separators,
    key order, a duplicate key, the text cut short or one byte changed."""
    doc = draw(mutated_fields(fields, matrices))
    if draw(st.booleans()):
        doc = json_ready(doc)  # non-finite floats as the strings the writer uses
    indent = draw(st.sampled_from([None, None, 0, 1, 2, "\t"]))
    item_sep, key_sep = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :  ")]))
    if indent is not None:
        item_sep = item_sep.rstrip(" ")
    items = draw(st.permutations(list(doc.items())))
    if draw(st.booleans()):
        # json keeps the last of two equal keys; the earlier value is drawn afresh
        key = draw(st.sampled_from(sorted(doc)))
        earlier = draw(mutated_fields(fields, matrices))[key]
        items = [(key, earlier), *items]

    def dump(value):
        return json.dumps(value, indent=indent, separators=(item_sep, key_sep))

    text = "{" + item_sep.join(dump(k) + key_sep + dump(v) for k, v in items) + "}\n"
    raw = text.encode("utf-8")
    cut = draw(st.sampled_from(["none", "none", "truncate", "byte"]))
    if cut == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif cut == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        raw = raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1 :]
    return raw


_CASES = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_CASES
@given(raw=document_texts(state_fields(), "data"))
def test_state_files_load_as_json_loads_reads_them(scratch, raw):
    path = scratch / "state.json"
    path.write_bytes(raw)
    assert _outcome(load_state, path) == _outcome(
        lambda p: _reference_load(p, state_from_document), path
    )


@_CASES
@given(raw=document_texts(channel_fields(), "kraus"))
def test_channel_files_load_as_json_loads_reads_them(scratch, raw):
    path = scratch / "channel.json"
    path.write_bytes(raw)
    assert _outcome(load_channel, path) == _outcome(
        lambda p: _reference_load(p, channel_from_document), path
    )


def test_entries_keep_the_signs_of_zeros(tmp_path):
    # re + 1j * im, as the loader always built entries: an imaginary -0.0
    # comes back as +0.0, which reinterpreting the pairs' memory would not do
    pairs = [[[-0.0, -0.0], [0.5, -0.0]], [[0.5, 0.0], [-0.0, "inf"]]]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"labels": ["A"], "dims": [2], "data": pairs}))
    arr = np.array(pairs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        expected = arr[..., 0] + 1j * arr[..., 1]
    assert _bits(load_state(path).entries) == _bits(expected)
    assert np.signbit(expected.imag[0, 0]) != np.signbit(arr[0, 0, 1])


# --- memory ----------------------------------------------------------------


def test_loading_a_state_peaks_below_three_times_the_file(tmp_path):
    # whole-document json.loads held every number as a Python float and every
    # pair as a list at once: about four times the file
    path = tmp_path / "state.json"
    layout = SubsystemLayout((("A", 12), ("B", 12)))
    save_state(path, random_density_matrix(144, seed=3, layout=layout))
    size = path.stat().st_size
    assert size > 900_000
    tracemalloc.start()
    try:
        load_state(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


# --- entries no float can hold ---------------------------------------------

_HUGE = 10**400  # 401 digits: an int json reads, but no float can hold


def test_huge_integer_state_entry_is_a_parse_error(tmp_path):
    path = tmp_path / "state.json"
    data = [[[_HUGE, 0], [0, 0]], [[0, 0], [0, 0]]]
    path.write_text(json.dumps({"labels": ["A"], "dims": [2], "data": data}))
    with pytest.raises(ParseError, match="state.json: an entry is too large for a float"):
        load_state(path)


def test_huge_integer_kraus_entry_is_a_parse_error(tmp_path):
    path = tmp_path / "channel.json"
    doc = channel_to_document(random_channel(2, 2, 1, seed=0))
    doc["kraus"][0][1][0][1] = -_HUGE
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"channel.json: kraus\[0\]: an entry is too large"):
        load_channel(path)


@pytest.mark.parametrize(
    "text",
    [
        # past Python's limit on the digits of an integer literal
        '{"labels": ["A"], "dims": [1], "data": [[[1' + "0" * 5000 + ", 0]]]}",
        # arrays nested deeper than the recursion limit
        '{"data": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["digit-limit", "deep-nesting"],
)
def test_json_the_parser_refuses_is_a_parse_error(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="state.json: not valid JSON"):
        load_state(path)
