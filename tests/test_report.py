"""The report emitter against json.dumps(indent=2), the layout it writes directly."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wedgeq._report import format_cell, render_csv, render_json, round_sig


def _clean(obj):
    """Round every float and map non-finite ones to None, recursively."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return round_sig(obj)
    if isinstance(obj, dict):
        return {key: _clean(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(value) for value in obj]
    item = getattr(obj, "item", None)
    if item is not None:  # NumPy scalars
        return _clean(item())
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _oracle_json(payload) -> str:
    return json.dumps(_clean(payload), indent=2, allow_nan=False) + "\n"


def _oracle_csv(header, rows, comments=()) -> str:
    lines = [f"# {key}={format_cell(value)}" for key, value in comments]
    lines.append(",".join(header))
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.99999999999995e-5,
    999999999999.5, 1e12, 1e15, 1e16, 123456789012345.6, 0.1, 1.0, 100.0,
)
_floats = st.one_of(
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
    st.floats(-1e-300, 1e-300),  # subnormals among them
)
_text = st.one_of(
    st.text(), st.sampled_from(("", "é", "\x00\x1f\x7f", '"\\/', " ", "%s %%", "\U0001f600"))
)
_scalars = st.one_of(
    _floats,
    st.integers(),
    st.booleans(),
    st.none(),
    _text,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=30,
)


@st.composite
def _tables(draw):
    header = draw(st.lists(_text, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.lists(_scalars, min_size=len(header), max_size=len(header)),
                         max_size=5))
    payload = draw(st.dictionaries(_text.filter(lambda key: key != "rows"), _payloads,
                                   max_size=3))
    return payload, header, rows


# Tables whose columns each hold one type, the case formatted a column at a time.
_column_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([x for x in _SPECIAL_FLOATS if math.isfinite(x)]),
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
    st.floats(-1e-300, 1e-300),  # subnormals among them
)
_column_ints = st.one_of(
    st.integers(), st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63) - 1)
)
_column_cells = {"float": _column_floats, "int": _column_ints, "bool": st.booleans()}


@st.composite
def _homogeneous_tables(draw):
    header = draw(st.lists(_text, min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(0, 40))
    columns = [
        draw(st.lists(_column_cells[draw(st.sampled_from(sorted(_column_cells)))],
                      min_size=n_rows, max_size=n_rows))
        for _ in header
    ]
    return header, [list(row) for row in zip(*columns)]


def _every_magnitude() -> list[float]:
    """Random bit patterns, decades 1e-330 to 1e20 and values just below a power of ten."""
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    spread = rng.uniform(-1, 1, 20_000) * 10.0 ** rng.uniform(-330, 20, 20_000)
    near = 10.0 ** np.arange(-6, 18) * (1 - 5e-13)
    return np.concatenate((bits, spread, near, -near)).tolist()


def _both_renderers_match(header, rows):
    payload = {"command": "t"}
    expected = {**payload, "rows": [dict(zip(header, row)) for row in rows]}
    assert render_json(payload, table=(header, rows)) == _oracle_json(expected)
    assert render_csv(header, rows, (("c", 1),)) == _oracle_csv(header, rows, (("c", 1),))


class TestColumnTables:
    """Tables through both renderers, against formatting each cell alone."""

    @settings(max_examples=120, deadline=None)
    @given(_homogeneous_tables())
    @example((["x"], [[1e12], [0.0], [-0.0], [5e-324], [123456789012345.6], [1.0]]))
    @example((["n", "b"], [[2**64, True], [-(2**63) - 1, False]]))
    def test_homogeneous_columns(self, table):
        _both_renderers_match(*table)

    @pytest.mark.parametrize("odd", [math.nan, None, math.inf, np.float64(0.25), 3])
    def test_one_odd_cell_in_a_float_column(self, odd):
        rows = [[0.1 * k, k] for k in range(30)]
        rows[17][0] = odd
        _both_renderers_match(["f", "k"], rows)

    def test_floats_of_every_magnitude_in_one_column(self):
        finite = [x for x in _every_magnitude() if math.isfinite(x)]
        rows = [[x] for x in finite[::2]]
        assert len(rows) > 19_000
        _both_renderers_match(["x"], rows)

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            render_csv(["a", "b"], [[1.0, 2.0], [3.0]])


class TestRenderJson:
    @settings(max_examples=150, deadline=None)
    @given(_payloads)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": [{}], "d": ()})
    @example({"z": 1, "a": 2})  # keys keep insertion order
    def test_matches_json_dumps(self, payload):
        assert render_json(payload) == _oracle_json(payload)

    @settings(max_examples=60, deadline=None)
    @given(_tables())
    @example(({"command": "sweep"}, ["lambda", "w"], []))
    @example(({}, ["%s", "50%"], [[1.5, None]]))
    def test_table_matches_rows_of_dicts(self, table):
        payload, header, rows = table
        expected = {**payload, "rows": [dict(zip(header, row)) for row in rows]}
        assert render_json(payload, table=(header, rows)) == _oracle_json(expected)

    def test_floats_of_every_magnitude(self):
        values = _every_magnitude()
        assert render_json(values) == _oracle_json(values)

    @pytest.mark.parametrize(
        "payload",
        [{1: 2}, {"a": {None: 1}}, [{"ok": 1}, {1.5: 2}], {True: 1}, {("a",): 1}],
    )
    def test_non_str_key_raises(self, payload):
        with pytest.raises(TypeError):
            render_json(payload)

    def test_non_str_header_raises(self):
        with pytest.raises(TypeError):
            render_json({}, table=([1], [[2.0]]))

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError):
            render_json({"a": object()})


class TestRenderCsv:
    @settings(max_examples=50, deadline=None)
    @given(_tables())
    def test_matches_format_cell(self, table):
        _, header, rows = table
        comments = (("c2_H", 0.1), ("n", 3))
        assert render_csv(header, rows, comments) == _oracle_csv(header, rows, comments)

    def test_comment_lines_format_their_values_as_cells(self):
        comments = (("c2_H", 0.1), ("n_samples", 100000), ("escape_rate", 1 / 3), ("K", 1e-300))
        assert render_csv(["a"], [[1.0]], comments) == (
            "# c2_H=0.1\n# n_samples=100000\n# escape_rate=0.333333333333\n# K=1e-300\na\n1\n"
        )
