"""render_json writes what json.dumps(indent=2, sort_keys=True, allow_nan=False) writes.

A FloatTable renders, in JSON and in text, exactly as the list of its rows.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bellsim.report import _MARKER, FloatTable, _lines, render_json


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 1e-4, 0.1, 1e22,
                          1e300, -1e300])
floats = finite | special
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
#: Rows of floats, as FloatTable holds them, and rows that mix in ints and bools.
float_tables = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(floats, min_size=k, max_size=k), min_size=1, max_size=8))
mixed_tables = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(floats | st.integers() | st.booleans(), min_size=k, max_size=k),
                       min_size=1, max_size=8))
trees = st.recursive(
    scalars | float_tables | mixed_tables,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(trees)
@example({"rows": [[0.0, -1.0], [-0.0, 5e-324], [1e16, 1e-5]], "row_count": 3})
@example([[1.0, 2], [3.0, 4.0]])
@example([[1.0, True], [3.0, 4.0]])
@example([[1.0, 2.0], [3.0]])
@example([[], []])
@example([[1.0], (2.0,)])
def test_render_json_equals_the_stdlib(value):
    assert render_json(value) == stdlib(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", ["scalar", "table", "mixed row", "key"])
def test_non_finite_floats_raise_the_stdlib_error(bad, place):
    value = {
        "scalar": {"x": [1, bad]},
        "table": {"rows": [[0.0, 1.0], [2.0, bad]]},
        "mixed row": [[1, bad], [2.0, 3.0]],
        "key": {bad: 1.0},
    }[place]
    with pytest.raises(ValueError) as expected:
        stdlib(value)
    with pytest.raises(ValueError) as got:
        render_json(value)
    assert str(got.value) == str(expected.value)


def test_values_the_stdlib_refuses_raise_its_error():
    cycle = []
    cycle.append(cycle)
    for value in ({"a": 1, 2: 3}, {"x": object()}, cycle):
        with pytest.raises((TypeError, ValueError)) as expected:
            stdlib(value)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            render_json(value)


def test_subclasses_render_as_their_base_type():
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Ratio(float):
        def __repr__(self):
            return "Ratio()"

    value = {"level": Level.HIGH, "ratio": Ratio(0.5), "rows": [[Ratio(1.0), 2.0]], "pair": (1, 2)}
    assert render_json(value) == stdlib(value)


def nest(value, wrappers):
    """``value`` inside a dict (True) or a list (False) for each wrapper, innermost first."""
    for in_dict in wrappers:
        value = {"rows": value, "row_count": 1} if in_dict else [value, 1]
    return value


@given(float_tables, st.lists(st.booleans(), max_size=3), st.integers(0, 3))
@example([[0.0, -1.0], [-0.0, 5e-324], [1e16, 1e-5], [1e300, -1e300]], [True, True], 1)
@example([[1.0]], [], 0)
def test_float_table_renders_as_its_rows(rows, wrappers, indent):
    table = FloatTable(np.array(rows, dtype=np.float64))
    assert table.text == "".join(" ".join(map(repr, row)) + "\n" for row in rows)
    assert render_json(nest(table, wrappers)) == stdlib(nest(rows, wrappers))
    text, expected = ("\n".join(_lines(nest(value, wrappers), indent)) for value in (table, rows))
    assert text == expected


@given(float_tables)
@example([[0.0, -1.0], [-0.0, 5e-324]])
def test_a_report_the_fast_renderer_refuses_renders_a_table_as_its_rows(rows):
    table = FloatTable(np.array(rows, dtype=np.float64))
    assert render_json({"rows": table, "counts": {1: 2}}) == stdlib({"rows": rows, "counts": {1: 2}})
    with pytest.raises(ValueError) as expected:
        stdlib({"rows": rows, "x": math.nan})
    with pytest.raises(ValueError) as got:
        render_json({"rows": table, "x": math.nan})
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("extra", [{"note": _MARKER}, {"note": '"' + _MARKER}, {_MARKER: 1},
                                   {"note": f'"{_MARKER}"'}])
def test_strings_holding_the_marker_leave_tables_rendered_as_rows(extra):
    rows = [[0.0, -1.0], [1e16, 5e-324]]
    table = FloatTable(np.array(rows))
    assert render_json({"rows": table, **extra}) == stdlib({"rows": rows, **extra})


@pytest.mark.parametrize("array", [
    np.array([[0.0, math.nan]]), np.array([[math.inf]]), np.array([[-math.inf, 1.0]]),
    np.zeros((0, 2)), np.zeros((2, 0)), np.zeros(2),
])
def test_float_table_takes_only_finite_rows_and_columns(array):
    with pytest.raises(ValueError):
        FloatTable(array)
