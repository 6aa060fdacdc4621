"""Report assembly: run manifests, pass/fail checks, JSON and text rendering.

Every report embeds a manifest with the tool version, the subcommand
and its fully resolved configuration, so the run can be reproduced from
the report alone.  Machine-readable output is canonical JSON (sorted
keys, fixed indentation); rendering the same report twice yields
byte-identical text.  Timestamps live only in the manifest and can be
omitted entirely.

Result records are dataclasses, and :func:`record` gives each its one
JSON shape: its fields in field order, which is also the order the text
format lists them in.  A sweep's rows go into a report as a
:class:`FloatTable`: blocks of Python floats, each checked and formatted
once into text, which is all the table keeps.  Both renderers lay it out
as its list of rows, a block at a time as the report is written (see
:class:`Rendered`).  :func:`render_json` is
``json.dumps(report, indent=2, sort_keys=True, allow_nan=False)``, with
each table's rows spliced into that layout, so the standard library's
pure-Python indenting encoder never walks them.  Anything ``json.dumps``
refuses (non-string keys, unknown types, NaN or infinity, a cycle)
raises exactly what it raises, when the renderer is called.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Iterable, Iterator

from . import __version__
from .spinmodel import glyph

TOOL_NAME = "bellsim"


@dataclass(frozen=True, slots=True)
class Check:
    """One pass/fail criterion embedded in a report."""

    name: str
    passed: bool
    value: float | None = None
    target: float | None = None
    tolerance: float | None = None

    @classmethod
    def within(cls, name: str, value: float, target: float, tolerance: float) -> "Check":
        """Passes when ``value`` lies within ``tolerance`` of ``target``."""
        return cls(name, abs(value - target) <= tolerance, value, target, tolerance)


class FloatTable:
    """Rows of finite floats, as text: each block's cells ``%r`` once, spaced, a row per line."""

    __slots__ = ("blocks",)

    def __init__(self, columns: int, blocks: Iterable[list[float]]) -> None:
        """Each block lists whole rows one after another, ``columns`` cells each."""
        self.blocks = [self._format(columns, cells) for cells in blocks]
        if not self.blocks:
            raise ValueError("a float table needs at least one row")

    @staticmethod
    def _format(columns: int, cells: list[float]) -> str:
        if not (type(columns) is int and columns >= 1 and cells and len(cells) % columns == 0
                and set(map(type, cells)) == {float} and all(map(math.isfinite, cells))):
            raise ValueError("each block of a float table holds whole rows of finite floats")
        return (" ".join(["%r"] * columns) + "\n") * (len(cells) // columns) % tuple(cells)

    def rows(self) -> list[list[float]]:
        """The rows as lists of floats, parsed from the text: ``float(repr(x))`` is ``x``."""
        return [list(map(float, line.split(" "))) for text in self.blocks
                for line in text.splitlines()]

    def join(self, before: str, cell: str, row: str, after: str) -> Iterator[str]:
        """``before``, the cells joined by ``cell`` in each row, the rows by ``row``, ``after``."""
        for text in self.blocks:
            yield before
            # A NUL, which no %r holds, marks cells while separators with spaces and newlines go in.
            yield text[:-1].replace(" ", "\0").replace("\n", row).replace("\0", cell)
            before = row
        yield after


class Rendered:
    """A report's text as pieces: strings, and calls making a table's pieces a block at a time."""

    def __init__(self, pieces: list[str | Callable[[], Iterator[str]]]) -> None:
        self.pieces = pieces

    def __iter__(self) -> Iterator[str]:
        for piece in self.pieces:
            yield from (piece,) if isinstance(piece, str) else piece()

    def encode(self, encoding: str = "utf-8") -> bytes:
        """The whole text's bytes, as ``str.encode`` gives them."""
        return "".join(self).encode(encoding)


def record(value: Any) -> Any:
    """The JSON shape of a result.

    A dataclass becomes a dict of its fields in field order, a sign-pair
    key its glyph (``(1, -1)`` is ``"+-"``) and a tuple a list; anything
    else, such as a choice's string, is kept as it is.
    """
    if is_dataclass(value):
        return {f.name: record(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {glyph(*k) if isinstance(k, tuple) else k: record(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [record(v) for v in value]
    return value


def build_report(
    subcommand: str,
    config: dict,
    results: dict,
    checks: list[Check],
    seed: int | None = None,
    outputs: dict | None = None,
    timestamp: bool = True,
) -> dict:
    manifest: dict[str, Any] = {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "outputs": outputs or {},
    }
    if timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {
        "manifest": manifest,
        "results": record(results),
        "checks": record(checks),
        "passed": all(c.passed for c in checks),
    }


#: What ``json.dumps`` writes for a table, until its rows are spliced in.
_MARKER = "\0FloatTable\0"
_QUOTED_MARKER = json.dumps(_MARKER)
_not_serializable = json.JSONEncoder().default


def render_json(report: dict) -> Rendered:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``, tables as rows.

    Each table is written as a marker string, and its rows are spliced in
    at the marker line's indentation.  A report whose own strings hold the
    marker is written by ``json.dumps`` alone.
    """
    tables: list[FloatTable] = []

    def default(o: Any) -> Any:
        if not isinstance(o, FloatTable):
            return _not_serializable(o)
        tables.append(o)
        return _MARKER

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=default)
    pieces = text.split(_QUOTED_MARKER)
    if len(pieces) != len(tables) + 1:
        # Only tables reach ``default`` here: the first pass raised for anything else.
        return Rendered([json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                                    default=FloatTable.rows), "\n"])
    out: list = [pieces[0]]
    for table, before, after in zip(tables, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        newline = "\n" + line[:len(line) - len(line.lstrip(" "))]
        inner = newline + "  "
        cell = inner + "  "
        out += (functools.partial(table.join, "[" + inner + "[" + cell, "," + cell,
                                  inner + "]," + inner + "[" + cell, inner + "]" + newline + "]"),
                after)
    out.append("\n")
    return Rendered(out)


def _scalar(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lines(value: Any, indent: int) -> list:
    """The lines of ``value``; a table's is a call that makes its pieces (see :class:`Rendered`)."""
    pad = "  " * indent
    out: list = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list, tuple, FloatTable)) and item:
                out.append(f"{pad}{key}:")
                out.extend(_lines(item, indent + 1))
            else:
                item_text = "[]" if isinstance(item, (list, tuple)) else _scalar(item)
                item_text = "{}" if isinstance(item, dict) else item_text
                out.append(f"{pad}{key}: {item_text}")
    elif isinstance(value, FloatTable):
        out.append(functools.partial(value.join, f"{pad}-\n{pad}  [", ", ",
                                     f"]\n{pad}-\n{pad}  [", "]"))
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple, FloatTable)) for v in value):
            out.append(f"{pad}[{', '.join(_scalar(v) for v in value)}]")
        else:
            for v in value:
                out.append(f"{pad}-")
                out.extend(_lines(v, indent + 1))
    else:
        out.append(f"{pad}{_scalar(value)}")
    return out


def render_text(report: dict) -> Rendered:
    manifest, checks = report["manifest"], report["checks"]
    lines = [f"{manifest['tool']} {manifest['version']} -- {manifest['subcommand']}", "",
             "manifest:", *_lines(manifest, 1), "", "results:", *_lines(report["results"], 1)]
    if checks:
        lines += ("", "checks:")
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            detail = [f"{key}={_scalar(check[key])}" for key in ("value", "target", "tolerance")
                      if check[key] is not None]
            suffix = f"  ({', '.join(detail)})" if detail else ""
            lines.append(f"  [{status}] {check['name']}{suffix}")
    n_pass = sum(1 for c in checks if c["passed"])
    verdict = "PASS" if report["passed"] else "FAIL"
    lines += ("", f"RESULT: {verdict} ({n_pass}/{len(checks)} checks)")
    return Rendered([piece for line in lines for piece in (line, "\n")])
