"""Each statistical check's exact false-fail probability, by enumerating the multinomial.

A check reads only the four sign-pair cell counts of a run.  The engine's
law of those cells is exact (``fold`` over ``_world_table``, which
tests/test_exact_law.py checks), so the probability that a check fails
although the engine is right is a finite sum over the C(N + 3, 3) count
vectors of N trials: no seed is drawn, and the test cannot be flaky.  Each
vector is judged by the library's own rule, in its own float order.

The rules state no level yet.  At phi = 0 the mc-run check fails more often
than the 2.7e-3 of a two-sided 3-sigma rule (3.72e-3 at N = 28), so this test
pins today's figures, not a level: exact zeros where a check cannot fail,
and the other figures to a relative 1e-9.
"""

import math

import pytest

from bellsim import ballprotocol as bp
from bellsim import cli
from bellsim import montecarlo as mc
from bellsim.report import Check
from bellsim.rng import SIGN_PAIRS, fold
from bellsim.spinmodel import Direction, quantum_correlation


def count_vectors(trials: int):
    """Every (++, +-, -+, --) count vector of ``trials`` trials."""
    for a in range(trials + 1):
        for b in range(trials - a + 1):
            for c in range(trials - a - b + 1):
                yield a, b, c, trials - a - b - c


def false_fail(cells: dict, trials: int, fails) -> float:
    """The multinomial probability, under cell probabilities ``cells``, that ``fails`` holds.

    Vectors that put a count on a cell of probability 0 never occur and are not judged.
    """
    probs = [cells[pair] for pair in SIGN_PAIRS]
    total = []
    for counts in count_vectors(trials):
        if any(n and not p for n, p in zip(counts, probs)) or not fails(counts):
            continue
        a, b, c, _ = counts
        ways = math.comb(trials, a) * math.comb(trials - a, b) * math.comb(trials - a - b, c)
        total.append(ways * math.prod(p**n for p, n in zip(probs, counts)))
    return math.fsum(total)


def joint(worlds) -> dict:
    """The cell probabilities of a world table, both causes added."""
    cells, _ = fold(worlds)
    return {pair: cells[0][pair] + cells[1][pair] for pair in SIGN_PAIRS}


def mc_run_false_fail(phi_degrees: float, trials: int) -> float:
    """``mc-run --phi PHIdeg --trials N``: its covariance check, as the CLI builds it."""
    axis1, axis2 = Direction(0.0), Direction(phi_degrees * (math.pi / 180.0))
    config = mc.ExperimentConfig(axis1, axis2, trials)
    analytic = quantum_correlation(axis1, axis2)
    tol = mc.covariance_tolerance(analytic, trials)

    def fails(counts):
        covariance = mc.EmpiricalStats.from_counts(counts).covariance
        return not Check.within("covariance", covariance, analytic, tol).passed

    return false_fail(joint(mc._world_table(config)[1]), trials, fails)


def stage_false_fail(stage: int, trials: int) -> float:
    """``ball-protocol --stage S --trials N``: any of its five checks, as the CLI builds them.

    With canonical filters every trial registers.  Every joint count is put on cause 0: the
    checks read only ``joint_freq`` and ``correlation``, whose floats are then the same.
    """
    config = bp.StageConfig(stage=stage, trials=trials)
    zero = dict.fromkeys(SIGN_PAIRS, 0)

    def fails(counts):
        report = bp._reduce(config, ((dict(zip(SIGN_PAIRS, counts)), zero), [trials, 0]), trials)
        return not all(check.passed for check in cli._stage_checks(report, config))

    return false_fail(joint(bp._world_table(config)[1]), trials, fails)


RULES = {"mc-run": mc_run_false_fail, "stage": stage_false_fail}
#: (rule, phi in degrees or stage, N) -> the exact false-fail probability, 0 where the check
#: cannot fail.  The nonzero figures are given to 10 significant digits.
FIGURES = {
    ("mc-run", 0, 9): 0.0,
    ("mc-run", 0, 10): 1.953125e-3,
    ("mc-run", 0, 20): 2.576828003e-3,
    ("mc-run", 0, 28): 3.719165921e-3,
    ("mc-run", 0, 50): 2.602171457e-3,
    ("mc-run", 60, 12): 0.0,
    ("mc-run", 60, 13): 1.092485036e-8,
    ("mc-run", 60, 50): 1.967830009e-5,
    ("stage", 1, 5): 0.0,
    ("stage", 1, 6): 3.559570312e-6,
    ("stage", 2, 4): 0.0,
    ("stage", 2, 5): 6.4e-8,
    ("stage", 3, 4): 0.0,
    ("stage", 3, 5): 6.4e-8,
}


@pytest.mark.parametrize("rule, setting, trials", FIGURES,
                         ids=[f"{rule}-{setting}-N{n}" for rule, setting, n in FIGURES])
def test_each_check_fails_as_often_as_recorded(rule, setting, trials):
    """0.0 exactly where no vector that can occur fails the check, else within 1e-9."""
    figure = RULES[rule](setting, trials)
    assert math.isclose(figure, FIGURES[rule, setting, trials], rel_tol=1e-9), figure


@pytest.mark.parametrize("worlds", [
    mc._world_table(mc.ExperimentConfig(Direction(0.0), Direction(1.0), 1))[1],
    bp._world_table(bp.StageConfig(2, filter_mismatch_prob=0.1))[1]], ids=["mc-run", "stage"])
def test_the_enumeration_holds_the_whole_law(worlds):
    """Over every count vector the multinomial adds up to the registered mass."""
    cells = joint(worlds)
    assert math.isclose(false_fail(cells, 7, lambda counts: True), sum(cells.values()) ** 7,
                        rel_tol=1e-12)
