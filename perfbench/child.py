"""One benchmark pass, in a fresh process.

Usage: child.py WORKLOAD SEED WORKDIR MODE, where MODE is
  plain   -- run the workload's requests;
  traced  -- the same under the outside-in tracer;
  verify  -- the requests plus the worker-count equivalence request, with
             the checks that read whole CSV files.
A plain pass also times the reference kernel (refkernel.py) before its
first request and after each request.  Prints one JSON object: setup
timestamp, per-request and kernel times, peak RSS, output digests and,
when traced, the per-layer summary and spans.

Until peak RSS is read, the pass imports only what the requests need and
the small reference kernel, so the benchmark's own modules stay out of
the program's memory figure.
"""

import sys
import time

import bellsim.cli

bellsim.cli.build_parser()
READY = time.monotonic()  # setup_s ends here; the clock is system-wide

import contextlib  # noqa: E402  (everything below is outside setup)
import io  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """This process's own peak resident set (VmHWM), in MB.

    ``ru_maxrss`` is not used where VmHWM exists: the child is started by
    vfork and exec, and Linux carries the parent's peak over into it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, workdir: Path, mode: str) -> dict:
    workload = WORKLOADS[workload_name]
    requests = list(workload.requests)
    if mode == "verify" and workload.equivalence is not None:
        requests.append(workload.requests[workload.equivalence]
                        .with_workers(workload.equivalence_workers))
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer().install()

    # Only untraced timed passes carry the reference kernel (refkernel.py).
    kernel_s = []
    if mode == "plain":
        refkernel.reference_s()  # warm-up
        kernel_s.append(refkernel.reference_s())
    outcomes = []
    for i, request in enumerate(requests):
        out = workdir / f"request-{i}.out"
        text = io.StringIO()
        t0 = time.perf_counter()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(text):
                rc = bellsim.cli.main(request.command(seed, str(out)))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception:  # a crash is a failed request, not a failed pass
            import traceback

            error = traceback.format_exc(limit=-3)
        outcomes.append((rc, error, text.getvalue(), time.perf_counter() - t0, out))
        if kernel_s:
            kernel_s.append(refkernel.reference_s())
    peak_rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    import numpy

    import checks

    digests = [
        checks.digest(request, rc, error, text, out, deep=mode == "verify")
        for request, (rc, error, text, _, out) in zip(requests, outcomes)
    ]
    result = {
        "ready": READY,
        "numpy": numpy.__version__,
        "wall_s": sum(o[3] for o in outcomes),
        "request_s": [o[3] for o in outcomes],
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss,
        "digests": digests,
    }
    if tracer is not None:
        c = tracer.counters
        c["montecarlo.trials_requested"] = sum(r.mc_trials for r in requests)
        for d in digests:
            if "export" in d:
                c["export.bytes_written"] += d["export"]["bytes"]
                c["export.rows_written"] += d["export"]["rows"]
        result["layers"] = tracing.summarize(tracer.spans, c)
        result["untraced"] = tracer.missing
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    import json

    name, seed, workdir, mode = sys.argv[1:]
    print(json.dumps(run(name, int(seed), Path(workdir), mode)))
