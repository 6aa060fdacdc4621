"""Seeded Monte Carlo engine for the two-particle spin experiment.

Each trial owns one counter block of its random stream: the first draw
decides the hidden-variable sign (both signs equally likely), the
second draw is inverted against the conditional outcome probability of
the non-anchored observer.  The anchored observer's outcome is certain
given the hidden variable and consumes no randomness.  Trials can be
split into contiguous chunks and processed by any number of workers;
aggregation keeps exact integer histograms and derives all summary
statistics once from the final counts, so results are bit-identical to
sequential execution.  The per-trial CSV export (``csv_out``) streams
from the same chunks and returns the same statistics.  The worlds are
:class:`~bellsim.rng.World` records whose common cause is the hidden
sign, and each world's probability is the probability of its code.
:func:`description_equivalence` builds its record whole, verdict included.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (is_integer, one_of, require, require_real, require_trials, require_type,
                     require_u64)
from .rng import SIGN_PAIRS, Coin, RngStream, World, fold, simulate, threshold
from .spinmodel import Direction, HiddenVariable, conditional_outcome_prob, quantum_correlation

CHSH_LOCAL_BOUND = 2.0
CHSH_SINGLET_BOUND = 2.0 * math.sqrt(2.0)
require_chsh_mode = one_of(("analytic", "empirical"))
#: Whose axis anchors the hidden variable: Alice's (axis1) or Bob's (axis2).
require_description = one_of(("alice", "bob"))

#: The CHSH combination is a derived demonstration built from the model's
#: pair correlations; it is not itself a primitive of the model.
CHSH_NOTE = (
    "derived demonstration: CHSH combination of four pair correlations, each "
    "evaluated in its own measurement context with its own hidden-variable set"
)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Measurement setup plus trial count and stream identity."""

    axis1: Direction
    axis2: Direction
    trials: int
    description: str = "alice"
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self) -> None:
        require_type(self.axis1, "axis1", Direction)
        require_type(self.axis2, "axis2", Direction)
        object.__setattr__(self, "trials", require_trials(self.trials, "trials"))
        object.__setattr__(self, "description",
                           require_description(self.description, "description"))
        object.__setattr__(self, "seed", require_u64(self.seed, "seed"))
        object.__setattr__(self, "stream_id", require_u64(self.stream_id, "stream_id"))

    def stream(self) -> RngStream:
        return RngStream(self.seed, self.stream_id)


@dataclass(frozen=True, slots=True)
class EmpiricalStats:
    """Summary statistics derived from the exact outcome histogram.

    ``standard_error`` is the standard error of the pair mean of +/-1 products.
    """

    trials: int
    counts: dict[tuple[int, int], int]
    mean1: float
    mean2: float
    pair_mean: float
    covariance: float
    standard_error: float

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalStats":
        """The statistics of the ++, +-, -+ and -- cell counts; ``trials`` is their sum.

        The counts are a sequence, such as a list, a tuple or a 1-d numpy array: neither a
        mapping, whose keys would be read, nor an iterator, which reading would use up.
        """
        sequence = isinstance(counts, Sequence) or getattr(counts, "ndim", None) == 1
        require(sequence and len(counts) == 4 and all(is_integer(c) and c >= 0 for c in counts)
                and any(counts), "counts",
                "a sequence of four nonnegative integer cells, not all 0", counts)
        npp, npm, nmp, nmm = (int(c) for c in counts)
        trials = npp + npm + nmp + nmm
        n = float(trials)
        mean1 = (npp + npm - nmp - nmm) / n
        mean2 = (npp - npm + nmp - nmm) / n
        pair_mean = (npp - npm - nmp + nmm) / n
        covariance = pair_mean - mean1 * mean2
        return cls(
            trials=trials,
            counts=dict(zip(SIGN_PAIRS, (npp, npm, nmp, nmm))),
            mean1=mean1,
            mean2=mean2,
            pair_mean=pair_mean,
            covariance=covariance,
            standard_error=math.sqrt((1.0 - pair_mean**2) / trials),
        )


def _world_table(config: ExperimentConfig) -> tuple[tuple[Coin, ...], list[World]]:
    """The trial's coins and its 8 worlds, in world-code order.

    Coin 0 is the sign draw (below 1/2: the hidden variable is +1, cause
    0).  Coins 1 and 2 compare the outcome draw against the non-anchored
    observer's probability of +1 given lambda = +1 and lambda = -1; a
    world reads the one that matches its sign.  Both compare draw 1, so a
    world's probability is 1/2 times the length of the part of draw 1's
    53-bit range in which both coins take its states, over 2**53, which is
    exact: the two ranges are nested, so one pair of states never occurs,
    and neither does a second when the two thresholds are equal.  The row
    text follows the trial number: ``,lambda_sign,outcome1,outcome2``.
    """
    alice = require_type(config, "config", ExperimentConfig).description == "alice"
    anchor, other = (config.axis1, config.axis2) if alice else (config.axis2, config.axis1)
    anchored, drawn = (1, 2) if alice else (2, 1)  # particles: lambda fixes one, draw 1 the other
    lams = (HiddenVariable(anchor, 1), HiddenVariable(anchor, -1))
    bounds = [threshold(conditional_outcome_prob(lam, drawn, other, 1)) for lam in lams]
    fixed = [lam.predetermined(anchored) for lam in lams]
    coins = ((0, threshold(0.5)), (1, bounds[0]), (1, bounds[1]))
    worlds = []
    for code in range(1 << len(coins)):
        cause = 0 if code & 1 else 1  # lambda = +1 or -1
        up = (code >> 1 & 1, code >> 2 & 1)
        # Coin k is up where draw 1's 53 bits are below bounds[k], and down where they are not.
        start = max(0 if u else b for u, b in zip(up, bounds))
        end = min(b if u else 1 << 53 for u, b in zip(up, bounds))
        signs = {anchored: fixed[cause], drawn: 1 if up[cause] else -1}
        worlds.append(World(code, max(0, end - start) * 2.0**-54, cause, (signs[1], signs[2]),
                            f",{lams[cause].first_particle},{signs[1]},{signs[2]}\n"))
    return coins, worlds


def run_experiment(config: ExperimentConfig, workers: int = 1, csv_out=None) -> EmpiricalStats:
    """Run all trials and summarize them.

    ``workers`` only controls how many threads run the trial chunks;
    the histogram is a sum of per-chunk integer counts, so the result
    is identical for every worker count and for repeated runs.  With
    ``csv_out`` the trials are also written there, one row each, in
    order (columns: trial, lambda_sign, outcome1, outcome2).
    """
    coins, worlds = _world_table(config)
    cells, _ = fold(worlds, simulate(config.stream(), config.trials, coins, worlds, workers,
                                     csv_out, "trial,lambda_sign,outcome1,outcome2"))
    counts = [cells[0][pair] + cells[1][pair] for pair in SIGN_PAIRS]
    return EmpiricalStats.from_counts(counts)  # every world registers: they sum to trials


def covariance_tolerance(analytic: float, trials: int) -> float:
    """Acceptance band for an empirical covariance around its analytic value.

    Three standard errors of the +/-1 product mean, plus a 9/N guard for
    the sample marginal product: at certainty angles the product mean is
    exact and the entire deviation is mean1*mean2, which stays within 9/N
    at three standard errors.
    """
    analytic, trials = require_real(analytic, "analytic"), require_trials(trials, "trials")
    return 3.0 * math.sqrt(max(0.0, 1.0 - analytic * analytic) / trials) + 9.0 / trials


@dataclass(frozen=True, slots=True)
class DescriptionComparison:
    """Alice-anchored vs Bob-anchored runs on the axes at angles ``theta1`` and ``theta2``.

    ``passed`` holds when each covariance lies within ``tolerance`` of
    ``analytic`` and their ``discrepancy`` within ``combined_tolerance``.
    """

    theta1: float
    theta2: float
    trials: int
    seed: int
    analytic: float
    alice: EmpiricalStats
    bob: EmpiricalStats
    discrepancy: float
    tolerance: float
    combined_tolerance: float
    passed: bool


def description_equivalence(
    axis1: Direction,
    axis2: Direction,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> DescriptionComparison:
    """Run both descriptions on independent streams and compare.

    Each empirical covariance must match -cos(phi) within the single
    tolerance and the two must match each other within the combined
    (sqrt(2) wider) tolerance.
    """
    analytic = quantum_correlation(axis1, axis2)
    config = ExperimentConfig(axis1, axis2, trials, "alice", seed, stream_id=0)
    alice = run_experiment(config, workers)
    bob = run_experiment(ExperimentConfig(axis1, axis2, trials, "bob", seed, stream_id=1), workers)
    tol = covariance_tolerance(analytic, trials)
    combined = math.sqrt(2.0) * tol
    discrepancy = abs(alice.covariance - bob.covariance)
    return DescriptionComparison(
        theta1=axis1.theta,
        theta2=axis2.theta,
        trials=config.trials,
        seed=config.seed,
        analytic=analytic,
        alice=alice,
        bob=bob,
        discrepancy=discrepancy,
        tolerance=tol,
        combined_tolerance=combined,
        passed=(abs(alice.covariance - analytic) <= tol and abs(bob.covariance - analytic) <= tol
                and discrepancy <= combined),
    )


@dataclass(frozen=True, slots=True)
class ChshContext:
    """One of the four CHSH terms: its label, its axes' angles, its sign and its value."""

    label: str
    theta1: float
    theta2: float
    sign: int
    expectation: float


@dataclass(frozen=True, slots=True)
class EmpiricalContext(ChshContext):
    """A CHSH context whose expectation is the covariance of a run."""

    stats: EmpiricalStats


@dataclass(frozen=True, slots=True)
class ChshResult:
    """The CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""

    mode: str
    value: float
    abs_value: float
    contexts: tuple[ChshContext, ...]
    trials: int | None
    seed: int | None
    local_bound: float = CHSH_LOCAL_BOUND
    singlet_bound: float = CHSH_SINGLET_BOUND
    note: str = CHSH_NOTE


def chsh_details(
    a: Direction,
    a_prime: Direction,
    b: Direction,
    b_prime: Direction,
    mode: str = "analytic",
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> ChshResult:
    """Evaluate the CHSH combination, each term in its own context.

    Analytic mode substitutes the model's -cos correlations; empirical
    mode runs four independent experiments, one stream per context.
    """
    empirical = require_chsh_mode(mode, "mode") == "empirical"
    for name, axis in (("a", a), ("a_prime", a_prime), ("b", b), ("b_prime", b_prime)):
        require_type(axis, name, Direction)
    if empirical:  # the record holds the checked values
        trials, seed = require_trials(trials, "trials"), require_u64(seed, "seed")
    pairs = (
        ("E(a,b)", a, b, 1),
        ("E(a,b')", a, b_prime, -1),
        ("E(a',b)", a_prime, b, 1),
        ("E(a',b')", a_prime, b_prime, 1),
    )
    contexts = []
    total = 0.0
    for i, (label, ax1, ax2, sign) in enumerate(pairs):
        if not empirical:
            e = quantum_correlation(ax1, ax2)
            contexts.append(ChshContext(label, ax1.theta, ax2.theta, sign, e))
        else:
            config = ExperimentConfig(ax1, ax2, trials, "alice", seed, stream_id=i)
            stats = run_experiment(config, workers)
            e = stats.covariance
            contexts.append(EmpiricalContext(label, ax1.theta, ax2.theta, sign, e, stats))
        total += sign * e
    return ChshResult(
        mode=mode,
        value=total,
        abs_value=abs(total),
        contexts=tuple(contexts),
        trials=trials if empirical else None,
        seed=seed if empirical else None,
    )
