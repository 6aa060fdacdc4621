"""Report assembly: run manifests, pass/fail checks, JSON and text rendering.

Every report embeds a manifest with the tool version, the subcommand
and its fully resolved configuration, so the run can be reproduced from
the report alone.  Machine-readable output is canonical JSON (sorted
keys, fixed indentation); rendering the same report twice yields
byte-identical text.  Timestamps live only in the manifest and can be
omitted entirely.

:func:`render_json` writes exactly what ``json.dumps(report, indent=2,
sort_keys=True, allow_nan=False)`` writes, but collects the pieces in one
list and joins them once, and renders a table of finite floats (such as
a sweep's rows) with one ``%r`` template; the standard library's encoder
runs in pure Python whenever it indents.  Anything else it is given
(non-string keys, unknown types, NaN or infinity, a cycle) is handed to
``json.dumps``, which renders it or raises exactly as before.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any

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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "target": self.target,
            "tolerance": self.tolerance,
        }


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
        "checks": [c.to_json_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }


class _Unhandled(Exception):
    """A value the fast renderer leaves to ``json.dumps``."""


_INDENT = "  "
_encode_str = json.encoder.encode_basestring_ascii


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``."""
    pieces: list[str] = []
    try:
        _encode(report, "\n", pieces)
    except (_Unhandled, RecursionError):
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    else:
        raise _Unhandled


def _encode_list(items: list | tuple, newline: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = newline + _INDENT
    out.append("[" + inner)
    table = _float_table(items, inner)
    if table is not None:
        out.append(table)
    else:
        for i, item in enumerate(items):
            if i:
                out.append("," + inner)
            _encode(item, inner, out)
    out.append(newline + "]")


def _float_table(rows: list | tuple, inner: str) -> str | None:
    """The rendered rows, if ``rows`` are equal-length lists of finite floats.

    For a finite float ``json`` writes ``float.__repr__``, which is ``%r``,
    so one row template, repeated and filled in one call, renders them all.
    """
    if type(rows[0]) is not list or not rows[0]:
        return None
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(rows[0])}:
        return None
    cells = tuple(itertools.chain.from_iterable(rows))
    if set(map(type, cells)) != {float} or not all(map(math.isfinite, cells)):
        return None
    cell = inner + _INDENT
    row = "[" + cell + ("," + cell).join(["%r"] * len(rows[0])) + inner + "]"
    return ("," + inner).join([row] * len(rows)) % cells


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
            if isinstance(item, (dict, list)) and item:
                out.append(f"{pad}{key}:")
                out.extend(_lines(item, indent + 1))
            else:
                item_text = "[]" if isinstance(item, list) else _scalar(item)
                item_text = "{}" if isinstance(item, dict) else item_text
                out.append(f"{pad}{key}: {item_text}")
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
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
    lines.append(f"RESULT: {verdict} ({n_pass}/{len(checks)} checks)")
    return "\n".join(lines) + "\n"
