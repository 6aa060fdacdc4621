"""render_json writes what json.dumps(indent=2, sort_keys=True, allow_nan=False) writes.

A FloatTable renders, in JSON and in text, exactly as the list of its rows,
whatever blocks its rows come in.
"""

import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bellsim.report import _MARKER, FloatTable, build_report, render_json, render_text


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def as_json(value) -> str:
    return "".join(render_json(value))


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
    assert as_json(value) == stdlib(value)


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
    class Level(int):
        def __repr__(self):
            return "Level.HIGH"

        __str__ = __repr__

    class Ratio(float):
        def __repr__(self):
            return "Ratio()"

    value = {"level": Level(3), "ratio": Ratio(0.5), "rows": [[Ratio(1.0), 2.0]], "pair": (1, 2)}
    assert as_json(value) == stdlib(value)


def table_of(rows, size: int = 1) -> FloatTable:
    """The rows as a table: their cells one row after another, ``size`` rows a block."""
    blocks = (rows[i:i + size] for i in range(0, len(rows), size))
    return FloatTable(len(rows[0]), [[cell for row in block for cell in row] for block in blocks])


def nest(value, wrappers):
    """``value`` inside a dict (True) or a list (False) for each wrapper, innermost first."""
    for in_dict in wrappers:
        value = {"rows": value, "row_count": 1} if in_dict else [value, 1]
    return value


def as_text(results) -> str:
    return "".join(render_text(build_report("spin-correlation", {}, results, [], timestamp=False)))


@given(float_tables, st.lists(st.booleans(), max_size=3), st.integers(1, 3))
@example([[0.0, -1.0], [-0.0, 5e-324], [1e16, 1e-5], [1e300, -1e300]], [True, True], 1)
@example([[0.0, -1.0], [-0.0, 5e-324], [1e16, 1e-5], [1e300, -1e300]], [False, True], 3)
@example([[1.0]], [], 1)
def test_float_table_renders_as_its_rows(rows, wrappers, size):
    table = table_of(rows, size)
    assert "".join(table.blocks) == "".join(" ".join(map(repr, row)) + "\n" for row in rows)
    assert table.rows() == rows
    rendered = render_json(nest(table, wrappers))
    assert "".join(rendered) == "".join(rendered) == stdlib(nest(rows, wrappers))
    assert rendered.encode("utf-8") == stdlib(nest(rows, wrappers)).encode("utf-8")
    assert as_text(nest(table, wrappers)) == as_text(nest(rows, wrappers))


@given(float_tables, st.integers(1, 3))
@example([[0.0, -1.0], [-0.0, 5e-324]], 1)
def test_a_report_the_fast_renderer_refuses_renders_a_table_as_its_rows(rows, size):
    table = table_of(rows, size)
    assert as_json({"rows": table, "counts": {1: 2}}) == stdlib({"rows": rows, "counts": {1: 2}})
    with pytest.raises(ValueError) as expected:
        stdlib({"rows": rows, "x": math.nan})
    with pytest.raises(ValueError) as got:
        render_json({"rows": table, "x": math.nan})
    assert str(got.value) == str(expected.value)


def test_a_refused_report_raises_before_any_piece_is_made():
    """render_json checks the whole report at the call, so a failed render writes nothing."""
    table = table_of([[0.0, 1.0], [2.0, 3.0]])
    cycle = []
    cycle.append(cycle)
    for bad in (object(), math.nan, cycle, {"a": 1, 2: 3}, {(1, 2): 3}):
        with pytest.raises((TypeError, ValueError)):
            render_json({"rows": table, "x": bad})


@pytest.mark.parametrize("extra", [{"note": _MARKER}, {"note": '"' + _MARKER}, {_MARKER: 1},
                                   {"note": f'"{_MARKER}"'}])
def test_strings_holding_the_marker_leave_tables_rendered_as_rows(extra):
    rows = [[0.0, -1.0], [1e16, 5e-324]]
    table = table_of(rows)
    assert as_json({"rows": table, **extra}) == stdlib({"rows": rows, **extra})


@pytest.mark.parametrize("columns, blocks", [
    (2, [[0.0, math.nan]]), (1, [[math.inf]]), (2, [[-math.inf, 1.0]]), (2, [[]]), (2, []),
    (0, [[1.0, 2.0]]), (2, [[1.0, 2.0, 3.0]]), (True, [[1.0]]), (1.0, [[1.0]]), (1, [[1]]),
    (1, [[True]]), (2, [[1.0, 2]]), (2, [[1.0, 2.0], []]), (2, [[1.0, 2.0], [3.0]]),
    (2, [[1.0, 2.0], [3.0, math.nan]]),
])
def test_float_table_takes_only_whole_rows_of_finite_floats(columns, blocks):
    with pytest.raises(ValueError):
        FloatTable(columns, blocks)
