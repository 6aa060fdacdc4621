"""Colored-ball source/detector protocol with contextual correlations.

Three actors per trial: a source that sends each observer one ball of
each of the stage's two colors, and two observers whose single-color
detectors register a sign for at most one ball while counting every
ball that passes.  A remote aggregation step keeps only trials in
which both observers registered a result.

The source runs one of two complementary executive algorithms per
trial, chosen by a fair coin.  An algorithm fixes the signs of one
color deterministically and draws the other color's signs from a
biased coin, always honoring the anticorrelation rule: same-color
balls sent to the two observers carry opposite signs.  Held fixed,
either algorithm screens off the observed sign correlation; averaged
out, the correlation reappears.  Composing registered frequencies
across the three stages as if the per-stage algorithm pairs were one
conditioning variable yields an inequality that the actual frequencies
violate; the per-algorithm weighted decomposition shows where that
composition breaks.

A color is its letter, the plain string that filters, CSV rows and
reports hold: ``"a"`` (amber), ``"b"`` (blue) or ``"c"`` (cherry).
Each emission is a color->sign table, giving each color's (Alice's
sign, Bob's sign); an observer registers the entry of their own
filter's color, or nothing when the stage sends no ball of it.
Locality is structural: an observer reads only their own filter's
entry, so neither observer's result depends on the other's filter.
Trial randomness is counter-based (one block per trial), so chunked
execution reproduces the sequential stream exactly.

A trial's four coins (algorithm, correlated configuration, and each
observer's filter mismatch) give 16 worlds, and one table of
:class:`~bellsim.rng.World` records says what each means: its
probability, its algorithm (the common cause), its registered sign pair
and its CSV row.  The exact report and the simulated one are the same
reduction of :func:`~bellsim.rng.fold` over that table, over world
probabilities and over world counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptyReportError, one_of, require, require_probability, require_trials,
                     require_type)
from .rng import SIGN_PAIRS, Coin, RngStream, World, fold, simulate, threshold
from .spinmodel import glyph, require_spin

#: Stage number -> (fixed-sign color, variable-sign color).  The fixed
#: color is the one whose signs the executive algorithms pin down; it is
#: also the canonical filter choice for Alice, the variable color for Bob.
STAGE_COLORS: dict[int, tuple[str, str]] = {1: ("a", "b"), 2: ("a", "c"), 3: ("c", "b")}

#: Stage number -> (first algorithm, its mirror).  The first gives Alice
#: the fixed color's + sign, the mirror flips every sign.
ALGORITHM_IDS: dict[int, tuple[str, str]] = {
    1: ("A1", "A2"),
    2: ("A1'", "A2'"),
    3: ("A1''", "A2''"),
}

ALICE_FILTERS = ("a", "c")
BOB_FILTERS = ("b", "c")
require_stage = one_of(tuple(STAGE_COLORS))
#: Alice's filter check, then Bob's.
require_filters = (one_of(ALICE_FILTERS), one_of(BOB_FILTERS))


@dataclass(frozen=True, slots=True)
class StageConfig:
    """One stage of the experiment: colors, filters, bias, trials, seed.

    Filters default to the stage's canonical choice (Alice on the fixed
    color, Bob on the variable color).  Alice's device only accepts
    amber or cherry, Bob's only blue or cherry.  With probability
    ``filter_mismatch_prob`` an observer's device is set to their other
    admissible color for a trial, which can produce unregistered
    trials.
    """

    stage: int
    alice_filter: str | None = None
    bob_filter: str | None = None
    trials: int = 1_000_000
    seed: int = 0
    p_stage1: float = 0.15
    p_stage23: float = 0.04
    filter_mismatch_prob: float = 0.0

    def __post_init__(self) -> None:
        canonical = STAGE_COLORS[require_stage(self.stage, "stage")]
        for name, default, require_filter in zip(("alice_filter", "bob_filter"), canonical,
                                                 require_filters):
            value = getattr(self, name)
            value = default if value is None else require_filter(value, name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "trials", require_trials(self.trials, "trials"))
        for name in ("p_stage1", "p_stage23", "filter_mismatch_prob"):
            object.__setattr__(self, name, require_probability(getattr(self, name), name))

    @property
    def correlated_prob(self) -> float:
        return self.p_stage1 if self.stage == 1 else self.p_stage23

    def stream(self) -> RngStream:
        return RngStream(self.seed, self.stage)


@dataclass(frozen=True, slots=True)
class AlgorithmStats:
    """Registered-outcome statistics conditional on one algorithm."""

    algorithm: str
    weight: float
    registered: int | None
    joint_freq: dict[tuple[int, int], float]
    alice_mean: float
    bob_mean: float
    pair_mean: float
    correlation: float


@dataclass(frozen=True, slots=True)
class AggregateReport:
    """The remote computer's per-stage summary over registered trials."""

    stage: int
    alice_filter: str
    bob_filter: str
    mode: str
    trials: int | None
    passages_per_observer: int | None
    registered_trials: int | None
    registered_fraction: float
    joint_freq: dict[tuple[int, int], float]
    alice_mean: float
    bob_mean: float
    pair_mean: float
    correlation: float
    algorithms: tuple[AlgorithmStats, ...]


def _moments(freq: dict[tuple[int, int], float]) -> tuple[float, float, float, float]:
    alice = sum(a * f for (a, _), f in freq.items())
    bob = sum(b * f for (_, b), f in freq.items())
    pair = sum(a * b * f for (a, b), f in freq.items())
    return alice, bob, pair, pair - alice * bob


def _world_table(config: StageConfig) -> tuple[tuple[Coin, ...], list[World]]:
    """The trial's four coins and its 16 worlds, in the order reports add them up.

    Coins, one per draw: the algorithm (below 1/2: the first, cause 0;
    its mirror is cause 1), the correlated configuration, then Alice's
    and Bob's filter mismatch, so a world whose code is below 4 kept both
    devices on their configured filters.  Worlds run by algorithm, then
    correlated before not, then Alice's and Bob's device kept before
    switched; every report sums masses in this order, so its floats do
    not depend on how the worlds were counted.

    An emission is the color->sign table ``{fixed: (s, -s), variable:
    (-v, v)}`` of (Alice's sign, Bob's sign): the algorithm gives Alice
    the fixed color's sign ``s`` (+1 for the first, -1 for its mirror),
    and Bob's variable-color sign ``v`` equals ``s`` in the correlated
    configuration and ``-s`` otherwise.  Each observer reads only their
    own filter's entry; a color the stage does not send registers nothing.
    """
    m = require_type(config, "config", StageConfig).filter_mismatch_prob
    p = config.correlated_prob
    coins = ((0, threshold(0.5)), (1, threshold(p)), (2, threshold(m)), (3, threshold(m)))
    fixed, variable = STAGE_COLORS[config.stage]

    def devices(chosen: str, admissible: tuple[str, str]):
        other = admissible[1] if chosen == admissible[0] else admissible[0]
        return ((chosen, 1.0 - m, 0), (other, m, 1))

    worlds = []
    for k, (algorithm_id, s) in enumerate(zip(ALGORITHM_IDS[config.stage], (1, -1))):
        for correlated, p_corr in ((True, p), (False, 1.0 - p)):
            v = s if correlated else -s
            signs = {fixed: (s, -s), variable: (-v, v)}
            for af, pa, alice_flip in devices(config.alice_filter, ALICE_FILTERS):
                a = signs[af][0] if af in signs else None
                for bf, pb, bob_flip in devices(config.bob_filter, BOB_FILTERS):
                    b = signs[bf][1] if bf in signs else None
                    both = a is not None and b is not None
                    worlds.append(World(
                        code=(1 - k) | correlated << 1 | alice_flip << 2 | bob_flip << 3,
                        prob=0.5 * p_corr * (pa * pb),
                        cause=k,
                        signs=(a, b) if both else None,
                        row=f",{algorithm_id},{af if a else ''},{a or ''},"
                            f"{bf if b else ''},{b or ''},{int(both)}\n",
                    ))
    return coins, worlds


def _reduce(config: StageConfig, folded, trials: int | None) -> AggregateReport:
    """The stage report from the world table's :func:`~bellsim.rng.fold`.

    Its masses are world probabilities for the analytic report
    (``trials`` None) and world counts for the empirical one.  Worlds in
    which either observer registered nothing are dropped from the
    frequency denominators but, empirically, still counted as passages.
    """
    cells, registered = folded
    total = registered[0] + registered[1]
    if total <= 0:
        happened = "registers no joint trials" if trials is None else \
            f"registered no joint trials in {trials} emissions"
        raise EmptyReportError(f"stage {config.stage} with filters "
                               f"({config.alice_filter}, {config.bob_filter}) {happened}")
    empirical = trials is not None
    alg_stats = []
    for k, algorithm_id in enumerate(ALGORITHM_IDS[config.stage]):
        n_alg = registered[k]
        freq = {pair: cells[k][pair] / n_alg if n_alg > 0 else 0.0 for pair in SIGN_PAIRS}
        alg_stats.append(AlgorithmStats(algorithm_id, n_alg / total, n_alg if empirical else None,
                                        freq, *_moments(freq)))
    joint = {pair: (cells[0][pair] + cells[1][pair]) / total for pair in SIGN_PAIRS}
    am, bm, pm, corr = _moments(joint)
    return AggregateReport(
        stage=config.stage,
        alice_filter=config.alice_filter,
        bob_filter=config.bob_filter,
        mode="empirical" if empirical else "analytic",
        trials=trials,
        passages_per_observer=2 * trials if empirical else None,
        registered_trials=total if empirical else None,
        registered_fraction=total / trials if empirical else total,
        joint_freq=joint,
        alice_mean=am,
        bob_mean=bm,
        pair_mean=pm,
        correlation=corr,
        algorithms=tuple(alg_stats),
    )


def analytic_stage_report(config: StageConfig) -> AggregateReport:
    """Exact registered-outcome distribution for a stage configuration."""
    _, worlds = _world_table(config)
    return _reduce(config, fold(worlds), None)


def run_stage(config: StageConfig, workers: int = 1, csv_out=None) -> AggregateReport:
    """Simulate a stage and aggregate the registered results.

    Trials where either observer registered nothing are excluded from
    the frequency denominators but still counted as passages.  The
    histogram is a sum of per-chunk integer counts, so the report is
    identical for every worker count.  With ``csv_out`` the trials are
    also written there, one row each, in order (columns: trial,
    algorithm, alice_color, alice_sign, bob_color, bob_sign, registered;
    an observer's color and sign are empty when they registered nothing).
    """
    coins, worlds = _world_table(config)
    histogram = simulate(config.stream(), config.trials, coins, worlds, workers, csv_out,
                         "trial,algorithm,alice_color,alice_sign,bob_color,bob_sign,registered")
    return _reduce(config, fold(worlds, histogram), config.trials)


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """The cross-stage frequency inequality and whether it is violated.

    Compares the stage-1 both-positive frequency against the sum of the
    stage-2 and stage-3 both-positive frequencies.  Violation signals
    that composing frequencies across the three contexts as if they
    shared one conditioning variable is invalid, not that any stage's
    own statistics are inconsistent.
    """

    lhs: float
    rhs: float
    margin: float
    violated: bool
    mode: str
    terms: dict[str, float]


def bell_inequality_check(reports: tuple[AggregateReport, ...]) -> InequalityReport:
    """Evaluate the cross-stage inequality from three stage reports.

    Requires reports for stages 1, 2, 3 (in order) with the canonical
    filter pairs (a,b), (a,c), (c,b); anything else is rejected.
    """
    canonical = [(stage, a, b) for stage, (a, b) in STAGE_COLORS.items()]
    got = [(r.stage, r.alice_filter, r.bob_filter) if isinstance(r, AggregateReport)
           else r for r in reports] if isinstance(reports, (tuple, list)) else reports
    require(got == canonical, "reports", f"(stage, alice filter, bob filter) {canonical}", got)
    # Registered-trial frequencies, as the remote computer tabulates them.
    both_plus = [r.joint_freq[(1, 1)] for r in reports]
    modes = {r.mode for r in reports}
    lhs = both_plus[0]
    rhs = both_plus[1] + both_plus[2]
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        violated=lhs > rhs,
        mode=modes.pop() if len(modes) == 1 else "mixed",
        terms={
            "stage1_plus_plus": both_plus[0],
            "stage2_plus_plus": both_plus[1],
            "stage3_plus_plus": both_plus[2],
        },
    )


@dataclass(frozen=True, slots=True)
class DecompositionRecord:
    """Weighted per-algorithm composition of one joint frequency.

    The only admissible way to combine the two algorithms' conditional
    frequencies is the equal-weight total-probability composition; this
    record carries that composition next to the directly evaluated
    frequency, which it must reproduce.
    """

    stage: int
    event: str
    conditionals: dict[str, float]
    weights: dict[str, float]
    composed: float
    direct: float
    difference: float


def contextual_decomposition(
    config: StageConfig, alice_sign: int, bob_sign: int
) -> DecompositionRecord:
    """Decompose a registered joint frequency over the stage's algorithms.

    The event is "Alice registers ``alice_sign`` on her filter color
    and Bob registers ``bob_sign`` on his"; both the per-algorithm
    conditionals and the direct unconditional frequency are exact.
    """
    require_spin(alice_sign, "alice_sign")
    require_spin(bob_sign, "bob_sign")
    _, worlds = _world_table(config)
    # The event names the configured filter colors, so in mismatch worlds
    # (device flipped to the other color, code 4 and up) it does not occur.
    ids = ALGORITHM_IDS[config.stage]
    kept = [world for world in worlds if world.code < 4]
    cells, _ = fold(kept)
    pair = (alice_sign, bob_sign)
    conditionals = {aid: cells[k][pair] / 0.5 for k, aid in enumerate(ids)}
    weights = {aid: 0.5 for aid in ids}
    composed = sum(weights[aid] * conditionals[aid] for aid in ids)
    direct = sum((world.prob for world in kept if world.signs == pair), 0.0)
    event = f"{config.alice_filter}_A{glyph(alice_sign)}; {config.bob_filter}_B{glyph(bob_sign)}"
    return DecompositionRecord(
        stage=config.stage,
        event=event,
        conditionals=conditionals,
        weights=weights,
        composed=composed,
        direct=direct,
        difference=abs(composed - direct),
    )
