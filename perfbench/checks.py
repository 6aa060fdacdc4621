"""Output verification.

``digest`` runs in the pass's own process right after the timed requests
and reduces each request's outputs to what the benchmark checks: the exit
code against the report's verdict, the integer histograms, CSV row count
and SHA-256, and the sweep's distance from -cos(phi).  ``compare`` and
``check_pins`` run in run.py and hold each pass to the verification
pass of the same run and, at the default seed, to pinned values.

Whole report bytes are never hashed: float formatting and report fields
may change legitimately; the integer histograms may not.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

CELLS = ("++", "+-", "-+", "--")
SWEEP_TOLERANCE = 1e-12
#: Subcommands whose checks are 3-sigma bands: at any seed each trips with
#: probability about 0.27% by design.  Such a miss is counted, not failed,
#: while the deviation stays within BAND_SLACK tolerances (6 sigma).
BANDED = ("mc-run", "chsh")
BAND_SLACK = 2.0
#: A Monte Carlo cell further than this many binomial sigmas from the
#: singlet law is an error at any seed.
CELL_SIGMAS = 6.0


def histograms(node, path: str = "", out: dict | None = None) -> dict[str, list[int]]:
    """Every integer histogram in a report's results, keyed by JSON path.

    Monte Carlo stats carry ``counts``; ball algorithms carry ``registered``
    and joint frequencies, which are exact ratios of integers; a
    common-cause model estimated from a run carries ``sample_size``.
    """
    out = {} if out is None else out
    if isinstance(node, dict):
        if isinstance(node.get("counts"), dict):
            out[path] = [node["counts"][c] for c in CELLS]
        elif isinstance(node.get("registered"), int) and "joint_freq" in node:
            n = node["registered"]
            out[path] = [n] + [round(node["joint_freq"][c] * n) for c in CELLS]
        elif isinstance(node.get("sample_size"), int) and "p_z" in node:
            n = node["sample_size"]
            n_z = round(node["p_z"] * n)
            cells = [round(f * n_z) for row in node["joint_given_z"] for f in row]
            cells += [round(f * (n - n_z)) for row in node["joint_given_not_z"] for f in row]
            out[path] = [n, n_z] + cells
        for key, item in node.items():
            histograms(item, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            histograms(item, f"{path}[{i}]", out)
    return out


def _singlet_cells(node, phi: float | None, problems: list[str]) -> None:
    """Monte Carlo cells within CELL_SIGMAS of P(++) = P(--) = (1 - cos phi)/4."""
    if isinstance(node, dict):
        if "theta1" in node and "theta2" in node:
            phi = node["theta2"] - node["theta1"]
        elif isinstance(node.get("phi"), float):
            phi = node["phi"]
        if isinstance(node.get("counts"), dict) and phi is not None:
            counts = [node["counts"][c] for c in CELLS]
            n = sum(counts)
            c = math.cos(phi)
            for cell, k, p in zip(CELLS, counts, ((1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4)):
                if abs(k - n * p) > CELL_SIGMAS * math.sqrt(n * p * (1 - p)) + 1:
                    problems.append(f"cell {cell} = {k} is off the singlet law at phi={phi!r}")
        for item in node.values():
            _singlet_cells(item, phi, problems)
    elif isinstance(node, list):
        for item in node:
            _singlet_cells(item, phi, problems)


def _lookup(results: dict, dotted: str):
    for key in dotted.split("."):
        results = results[key]
    return results


def digest(request, rc, error: str | None, text: str, out: Path, deep: bool) -> dict:
    """Check one request's outputs and keep what later passes are compared on.

    ``deep`` adds the checks that read a whole CSV file (run once per run,
    in the verification pass: later passes must reproduce its SHA-256).
    """
    d = {"hist": {}, "band_misses": 0, "problems": []}
    if error is not None:
        d["problems"].append(f"raised {error}")
        return d
    try:
        _check_outputs(request, rc, json.loads(text), out, deep, d)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        d["problems"].append(f"outputs unreadable: {exc!r}")
    return d


def _check_outputs(request, rc, report: dict, out: Path, deep: bool, d: dict) -> None:
    problems = d["problems"]
    if rc != (0 if report["passed"] else 1):
        problems.append(f"exit code {rc} for a report with passed={report['passed']}")
    for check in report["checks"]:
        if check["passed"]:
            continue
        banded = report["manifest"]["subcommand"] in BANDED
        if banded and abs(check["value"] - check["target"]) <= BAND_SLACK * check["tolerance"]:
            d["band_misses"] += 1
        else:
            problems.append(f"check failed: {check['name']}")
    results = report["results"]
    d["hist"] = histograms(results)
    _singlet_cells(results, None, problems)
    for dotted, value in request.expect:
        got = _lookup(results, dotted)
        if abs(got - value) > 1e-12:
            problems.append(f"{dotted} = {got!r}, expected {value!r}")
    if request.output:
        body = out.read_bytes()
        rows = body.count(b"\n")
        if request.output == "csv":
            rows -= 1  # header
            d["csv"] = {"rows": rows, "sha256": hashlib.sha256(body).hexdigest()}
            if deep:
                problems.extend(_csv_agrees(out, report))
        else:
            _check_sweep(out, request.sweep_rows, problems)
        d["export"] = {"bytes": len(body), "rows": rows}


def _csv_agrees(path: Path, report: dict) -> list[str]:
    """The per-trial CSV reproduces the report's histogram, row by row."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    results = report["results"]
    sign = {"1": "+", "-1": "-"}
    if "stats" in results:  # mc-run: trial, lambda_sign, outcome1, outcome2
        want = dict(zip(CELLS, (results["stats"]["counts"][c] for c in CELLS)))
        got = Counter(sign[r[2]] + sign[r[3]] for r in rows)
        trials = results["stats"]["trials"]
    else:  # ball-protocol: trial, algorithm, colors, signs, registered
        stage = results["stages"][0]
        want = {
            (alg["algorithm"], cell): round(alg["joint_freq"][cell] * alg["registered"])
            for alg in stage["algorithms"] for cell in CELLS
        }
        got = Counter((r[1], sign[r[3]] + sign[r[5]]) for r in rows if r[6] == "1")
        trials = stage["trials"]
    problems = []
    if [r[0] for r in rows] != [str(i) for i in range(trials)]:
        problems.append(f"CSV {header} does not number trials 0..{trials - 1}")
    if {k: v for k, v in want.items() if v} != dict(got):
        problems.append("CSV rows disagree with the report's histogram")
    return problems


def _check_sweep(path: Path, expected_rows: int, problems: list[str]) -> None:
    worst = 0.0
    rows = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            phi, corr = (float(x) for x in line.split())
            worst = max(worst, abs(corr + math.cos(phi)))
            rows += 1
    if rows != expected_rows:
        problems.append(f"sweep has {rows} rows, expected {expected_rows}")
    if worst > SWEEP_TOLERANCE:
        problems.append(f"sweep row off -cos(phi) by {worst!r}")


def compare(reference: dict, current: dict) -> list[str]:
    """Problems of a request's digest against the same request's reference."""
    problems = []
    if current["hist"] != reference["hist"]:
        problems.append("histograms differ from the verification pass")
    if current.get("csv") != reference.get("csv"):
        problems.append("CSV differs from the verification pass")
    return problems


def check_pins(digests: list[dict], pins: list[dict]) -> list[list[str]]:
    """Per request, problems against the values pinned at the default seed."""
    out = []
    for d, pin in zip(digests, pins):
        problems = []
        if d["hist"] != pin["hist"]:
            problems.append("histograms differ from the pinned values")
        if "csv" in pin and d.get("csv") != pin["csv"]:
            problems.append("CSV rows or SHA-256 differ from the pinned values")
        out.append(problems)
    return out
