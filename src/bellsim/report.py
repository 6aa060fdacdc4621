"""Report assembly: run manifests, pass/fail checks, JSON and text rendering.

Every report embeds a manifest with the tool version, the subcommand
and its fully resolved configuration, so the run can be reproduced from
the report alone.  Machine-readable output is canonical JSON (sorted
keys, fixed indentation); rendering the same report twice yields
byte-identical text.  Timestamps live only in the manifest and can be
omitted entirely.

A sweep's rows go into a report as a :class:`FloatTable`, whose cells are
checked and formatted once; both renderers lay it out as its list of rows.
:func:`render_json` writes exactly what ``json.dumps(report, indent=2,
sort_keys=True, allow_nan=False)`` writes, but collects the pieces in one
list and joins them once; the standard library's encoder runs in pure
Python whenever it indents.  Anything else it is given (non-string keys,
unknown types, NaN or infinity, a cycle) is handed to ``json.dumps``,
which renders it, tables as their rows, or raises exactly as before.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Any

import numpy as np

from . import __version__

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
    """Rows of finite floats; ``text`` has each cell's ``%r`` once, spaced, a row per line."""

    __slots__ = ("array", "text")

    def __init__(self, array: np.ndarray) -> None:
        if array.ndim != 2 or 0 in array.shape or not np.isfinite(array).all():
            raise ValueError("a float table needs at least one row and column of finite floats")
        self.array = array
        row = " ".join(["%r"] * array.shape[1]) + "\n"
        self.text = row * len(array) % tuple(array.ravel().tolist())

    def join(self, cell_separator: str, row_separator: str) -> str:
        """The cells joined in each row, then the rows."""
        # A NUL, which no %r holds, marks cells while separators with spaces and newlines go in.
        rows = self.text[:-1].replace(" ", "\0").replace("\n", row_separator)
        return rows.replace("\0", cell_separator)


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
        "results": results,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }


class _Unhandled(Exception):
    """A value the fast renderer leaves to ``json.dumps``."""


class _Encoder(json.JSONEncoder):
    """The standard encoder, which writes a :class:`FloatTable` as its rows."""

    def default(self, o: Any) -> Any:
        return o.array.tolist() if isinstance(o, FloatTable) else super().default(o)


_INDENT = "  "
_encode_str = json.encoder.encode_basestring_ascii


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``."""
    pieces: list[str] = []
    try:
        _encode(report, "\n", pieces)
    except (_Unhandled, RecursionError):
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                          cls=_Encoder) + "\n"
    pieces.append("\n")
    return "".join(pieces)


def _encode(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON of ``value``; ``newline`` starts a line at its indentation.

    The type checks run in the order ``json``'s encoder runs them, so
    subclasses of str, int and float render as their base type does.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _Unhandled
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _encode_list(value, newline, out)
    elif isinstance(value, dict):
        _encode_dict(value, newline, out)
    elif isinstance(value, FloatTable):
        inner = newline + _INDENT
        cell = inner + _INDENT
        rows = value.join("," + cell, inner + "]," + inner + "[" + cell)
        out += ("[" + inner + "[" + cell, rows, inner + "]" + newline + "]")
    else:
        raise _Unhandled


def _encode_list(items: list | tuple, newline: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + _INDENT
    out.append("[" + inner)
    for i, item in enumerate(items):
        if i:
            out.append("," + inner)
        _encode(item, inner, out)
    out.append(newline + "]")


def _encode_dict(mapping: dict, newline: str, out: list[str]) -> None:
    if not mapping:
        out.append("{}")
        return
    if not all(type(key) is str for key in mapping):
        raise _Unhandled
    inner = newline + _INDENT
    separator = "{" + inner
    for key in sorted(mapping):
        out.append(separator + _encode_str(key) + ": ")
        _encode(mapping[key], inner, out)
        separator = "," + inner
    out.append(newline + "}")


def _scalar(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _lines(value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
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
        out.append(f"{pad}-\n{pad}  [" + value.join(", ", f"]\n{pad}-\n{pad}  [") + "]")
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


def render_text(report: dict) -> str:
    lines: list[str] = []
    manifest = report.get("manifest", {})
    lines.append(f"{manifest.get('tool', TOOL_NAME)} {manifest.get('version', '')} "
                 f"-- {manifest.get('subcommand', '')}")
    lines.append("")
    lines.append("manifest:")
    lines.extend(_lines(manifest, 1))
    lines.append("")
    lines.append("results:")
    lines.extend(_lines(report.get("results", {}), 1))
    checks = report.get("checks", [])
    if checks:
        lines.append("")
        lines.append("checks:")
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            detail = []
            for field in ("value", "target", "tolerance"):
                if check.get(field) is not None:
                    detail.append(f"{field}={_scalar(check[field])}")
            suffix = f"  ({', '.join(detail)})" if detail else ""
            lines.append(f"  [{status}] {check['name']}{suffix}")
    lines.append("")
    n_pass = sum(1 for c in checks if c["passed"])
    verdict = "PASS" if report.get("passed", True) else "FAIL"
    lines += (f"RESULT: {verdict} ({n_pass}/{len(checks)} checks)", "")  # newline-ended, uncopied
    return "\n".join(lines)
