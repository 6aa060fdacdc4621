"""bellsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through ``bellsim.cli.main`` from the
source tree next to this directory.  Every pass is a fresh child process
with one closed-loop client: each request starts when the previous one
returns.  A verification pass comes first and is not timed; timed passes
then repeat until S seconds have passed.  Every output is verified.

--trace 0 reports the end-to-end metrics, each the median over the timed
passes.  Each request's time is divided by the mean time of the reference
kernel (refkernel.py) that the pass runs right before and after it.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the fastest traced one.  The last line of stdout is the result object; the line
before it holds the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import LAYERS, WRITERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_PASSES = 4
#: Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "trials_per_ref": "1/ref", "peak_rss_mb": "MB"}
#: The same passes in plain seconds; their medians go into the run's metadata.
RAW = ("wall_s", "trials_per_s", "ref_s")
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    **{f"{layer}.{name}.self_s": "s" for layer, name in WRITERS},
    "rng.doubles_generated": "count",
    "rng.doubles_used": "count",
    "rng.useful_ratio": "ratio",
    "rng.threads_max": "count",
    "montecarlo.trials_simulated": "count",
    "montecarlo.sim_per_requested": "ratio",
    "ballprotocol.trials_simulated": "count",
    "ballprotocol.registered_ratio": "ratio",
    "spinmodel.sweep_points": "count",
    "report.bytes_rendered": "bytes",
    "export.bytes_written": "bytes",
    "export.rows_written": "count",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
}
#: Per-layer work counts: they must repeat in every traced pass.
EXACT_LAYER = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "ratio")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_pass(workload: str, seed: int, workdir: Path, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(workdir), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish before the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def pass_metrics(workload: str, result: dict) -> dict:
    """One pass's figures, in seconds and in units of the reference kernel's time."""
    requests = WORKLOADS[workload].requests
    kernel = result["kernel_s"]
    # Each request in units of the mean of the two kernel runs next to it.
    ref = [t / ((a + b) / 2) for t, a, b in zip(result["request_s"], kernel, kernel[1:])]
    trials = sum(r.trials for r in requests)
    simulating = [i for i, r in enumerate(requests) if r.trials]
    return {
        "setup_s": result["setup_s"],
        "wall_ref": sum(ref),
        "trials_per_ref": trials / sum(ref[i] for i in simulating),
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": result["wall_s"],
        "trials_per_s": trials / sum(result["request_s"][i] for i in simulating),
        "ref_s": statistics.mean(kernel),
    }


def tally(result: dict, reference: dict | None, pins: list | None) -> tuple[int, int, int]:
    """(attempted, failed, band misses) of one pass; prints each problem."""
    digests = result["digests"]
    problems = [list(d["problems"]) for d in digests]
    if reference is not None:
        for p, d, ref in zip(problems, digests, reference["digests"]):
            p.extend(checks.compare(ref, d))
    if pins is not None:
        for p, extra in zip(problems, checks.check_pins(digests, pins)):
            p.extend(extra)
    for i, p in enumerate(problems):
        for message in p:
            print(f"request {i}: {message}", file=sys.stderr)
    return len(digests), sum(1 for p in problems if p), sum(d["band_misses"] for d in digests)


def verify_equivalence(workload: str, result: dict) -> list[str]:
    """The verification pass's last request repeats one at another worker count."""
    index = WORKLOADS[workload].equivalence
    if index is None:
        return []
    digests = result["digests"]
    if digests[-1]["hist"] != digests[index]["hist"]:
        return ["histograms depend on --workers"]
    return []


def five_numbers(values: list[float]) -> list[float]:
    """Minimum, quartiles and maximum over a run's passes."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [min(values), *quartiles, max(values)]


def environment(workload: str, seed: int, numpy_version: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "bellsim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> None:
    deadline = time.monotonic() + RUN_DEADLINE_S
    pins = json.loads(PINS.read_text())[workload] if seed == DEFAULT_SEED else None

    reference = run_pass(workload, seed, workdir, "verify", deadline)
    attempted, failed, band_misses = tally(reference, None, pins)
    equivalence = verify_equivalence(workload, reference)
    for message in equivalence:
        print(message, file=sys.stderr)
    failed += len(equivalence)
    reference["digests"] = reference["digests"][:len(WORKLOADS[workload].requests)]

    plain, traced = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(plain) + len(traced) < MIN_PASSES:
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        result = run_pass(workload, seed, workdir, mode, deadline)
        a, f, b = tally(result, reference, pins)
        attempted, failed, band_misses = attempted + a, failed + f, band_misses + b
        (traced if mode == "traced" else plain).append(result)

    samples = [pass_metrics(workload, r) for r in plain]
    series = {name: [s[name] for s in samples] for name in [*END_TO_END, *RAW]}
    if trace:
        for name in EXACT_LAYER:
            if len({r["layers"][name] for r in traced}) != 1:
                print(f"{name} differs between traced passes", file=sys.stderr)
                failed += 1
        # One pass supplies every layer figure, so its self times add up.
        best = min(traced, key=lambda r: r["wall_s"])
        values = dict(best["layers"])
        values["traced_wall_s"] = best["wall_s"]
        values["unattributed_s"] = best["wall_s"] - sum(values[f"{x}.self_s"] for x in LAYERS)
        values["tracing_overhead_s"] = best["wall_s"] - min(series["wall_s"])
        series["traced_wall_s"] = [r["wall_s"] for r in traced]
        units = PER_LAYER
        trace_file = workdir.parent / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({"layers": values, "spans": best["spans"]}))
    else:
        values = {name: statistics.median(series[name]) for name in END_TO_END}
        units = END_TO_END

    meta = environment(workload, seed, reference["numpy"])
    meta.update({
        "passes": {"plain": len(plain), "traced": len(traced)},
        "median": {name: statistics.median(series[name]) for name in RAW},
        "spread": {name: five_numbers(v) for name, v in series.items()},
        "error_rate": failed / attempted,
        "band_misses": band_misses,
    })
    if trace:
        meta["untraced"] = best["untraced"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellsim" / "cli.py").is_file():
        print(f"error: no bellsim sources at {SRC}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
