"""The benchmark's workloads: fixed request lists for the bellsim CLI.

Every request is one ``bellsim.cli.main(argv)`` call.  The workload seed
is appended to every request as ``--seed``, together with
``--format json --no-timestamp`` so the verifier can read the report.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

#: Seed at which histograms and CSV digests are pinned (see pins.json).
DEFAULT_SEED = 1

#: Placeholder in a request's argv for the file the request writes.
OUT = "{out}"


@dataclass(frozen=True)
class Request:
    """One CLI request and what the benchmark knows about it in advance."""

    argv: tuple[str, ...]
    #: Trials counted toward trials_per_s; 0 for a request that simulates nothing.
    trials: int = 0
    #: Monte Carlo trials the request asks for (the base of sim_per_requested).
    mc_trials: int = 0
    #: Kind of file the request writes at OUT: "csv" or "sweep".
    output: str | None = None
    #: Rows the sweep file must hold.
    sweep_rows: int = 0
    #: Exact analytic values in the report: (dotted path under "results", value).
    expect: tuple[tuple[str, float], ...] = ()

    def command(self, seed: int, out: str) -> list[str]:
        argv = [out if a == OUT else a for a in self.argv]
        return argv + ["--seed", str(seed), "--format", "json", "--no-timestamp"]

    def with_workers(self, workers: int) -> "Request":
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return dataclasses.replace(self, argv=tuple(argv))


@dataclass(frozen=True)
class Workload:
    requests: tuple[Request, ...]
    #: Index of the request that the verification pass repeats with the
    #: other worker count; its histograms must not change.
    equivalence: int | None = None
    equivalence_workers: int = 1


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# Why: rng and montecarlo do nearly all the work, and this is the only
# workload on the threaded chunk path; peak RSS grows with --trials here.
# Export and analytic code are bypassed.
MC_BULK = Workload(
    requests=(
        Request(_argv("mc-run --phi 60deg --trials 4000000 --workers 2"),
                trials=4_000_000, mc_trials=4_000_000),
        Request(_argv("mc-run --phi 45deg --description both --trials 2000000 --workers 2"),
                trials=4_000_000, mc_trials=4_000_000),
        Request(_argv("chsh --mode empirical --trials 1000000 --workers 2"),
                trials=4_000_000, mc_trials=4_000_000),
    ),
    equivalence=0,
    equivalence_workers=1,
)

# Why: the same Philox stream used differently -- 4 draws per trial,
# unregistered trials, an 8-cell reduction and sequential execution, so an
# rng or chunking change tuned for mc-bulk that hurts this path shows here.
BALL_TRILOGY = Workload(
    requests=(
        Request(_argv("ball-protocol --all-stages --trials 1000000 --workers 1"),
                trials=3_000_000),
        Request(_argv("ball-protocol --stage 2 --mismatch-prob 0.1 --trials 1000000 --workers 1"),
                trials=1_000_000),
        Request(_argv("common-cause --builtin ball --empirical --trials 1000000 --workers 1"),
                trials=1_000_000),
    ),
    equivalence=0,
    equivalence_workers=2,
)

# Why: the write path and the analytic path.  The cost sits in CSV writing,
# the double simulation behind mc-run --csv-out, the scalar spinmodel chain
# of the sweep and report rendering; the kernels take under 5% of the time.
EXPORT_ANALYTIC = Workload(
    requests=(
        Request(("mc-run", "--phi", "60deg", "--trials", "200000", "--csv-out", OUT),
                trials=200_000, mc_trials=200_000, output="csv"),
        Request(("ball-protocol", "--stage", "1", "--trials", "200000", "--csv-out", OUT),
                trials=200_000, output="csv"),
        Request(("spin-correlation", "--sweep", "0:180:0.01deg", "--sweep-out", OUT),
                output="sweep", sweep_rows=18_001),
        Request(_argv("ball-protocol --all-stages --mode analytic"),
                expect=(("inequality.lhs", 0.075), ("inequality.rhs", 0.04))),
        Request(_argv("common-cause --builtin spin"),
                expect=(("report.covariance", -0.125),)),
        Request(_argv("chsh"), expect=(("chsh.abs_value", 2.0 * math.sqrt(2.0)),)),
    ),
)

WORKLOADS = {
    "mc-bulk": MC_BULK,
    "ball-trilogy": BALL_TRILOGY,
    "export-analytic": EXPORT_ANALYTIC,
}
