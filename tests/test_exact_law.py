"""Each world's probability against the exact law of the engine's coins.

A draw's top 53 bits are uniform on [0, 2**53), and coin k comes up when
they are below its threshold.  Coins on different draws are independent
and coins on one draw cut nested intervals of it, so the probability of a
world code is a product, over draws, of the length of the interval in
which each of the draw's coins takes the state the code gives it: an
exact :class:`fractions.Fraction`, whatever the floats the tables hold.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import ballprotocol as bp
from bellsim import montecarlo as mc
from bellsim.errors import EmptyReportError
from bellsim.rng import SIGN_PAIRS, fold
from bellsim.spinmodel import Direction, quantum_correlation

RANGE = 1 << 53
#: Probabilities at and next to the ends of a draw's range, and one half.
EDGE_PROBS = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
#: The certainty angles of the spin law, and the right angle between them.
EDGE_ANGLES = (0.0, math.pi / 2, math.pi)
#: A few units in the last place of 1: the frequencies and the covariance lie in [-1, 1].
ULPS = 4 * math.ulp(1.0)


def exact_law(coins) -> list[Fraction]:
    """P(code) for every world code of ``coins``, each a product of interval lengths."""
    probs = []
    for code in range(1 << len(coins)):
        p = Fraction(1)
        for draw in {d for d, _ in coins}:
            low, high = 0, RANGE  # the part of the draw in which its coins take their states
            for k, (d, t) in enumerate(coins):
                if d == draw:
                    low, high = (low, min(high, t)) if code >> k & 1 else (max(low, t), high)
            p *= Fraction(max(0, high - low), RANGE)
        probs.append(p)
    return probs


def assert_exact(coins, worlds) -> list[Fraction]:
    """Every world's prob within 2**-52 of the exact law, and 0.0 exactly where that is 0."""
    exact = exact_law(coins)
    assert sorted(w.code for w in worlds) == list(range(len(exact)))
    for world in worlds:
        assert abs(Fraction(world.prob) - exact[world.code]) <= Fraction(1, 1 << 52), world
        assert (world.prob == 0.0) == (exact[world.code] == 0), world
    assert sum(exact) == 1
    return exact


#: 0, or at least 2**-53: below that, a ball world's product of the model's probabilities can
#: underflow to 0.0 where its coins' law is not 0 (see the xfail below).
PROBS = st.sampled_from(EDGE_PROBS) | st.floats(2.0**-53, 1.0)
ANGLES = st.sampled_from(EDGE_ANGLES) | st.floats(-10.0, 10.0)


def spin_config(theta1, theta2, description):
    return mc.ExperimentConfig(Direction(theta1), Direction(theta2), 1, description)


def stage_config(stage, alice_filter, bob_filter, p, m):
    return bp.StageConfig(stage, alice_filter, bob_filter, p_stage1=p, p_stage23=p,
                          filter_mismatch_prob=m)


@settings(max_examples=150, deadline=None, database=None)
@given(theta1=ANGLES, theta2=ANGLES, description=st.sampled_from(("alice", "bob")))
def test_monte_carlo_worlds_follow_the_exact_law(theta1, theta2, description):
    assert_exact(*mc._world_table(spin_config(theta1, theta2, description)))


@settings(max_examples=150, deadline=None, database=None)
@given(stage=st.sampled_from((1, 2, 3)), alice_filter=st.sampled_from(bp.ALICE_FILTERS),
       bob_filter=st.sampled_from(bp.BOB_FILTERS), p=PROBS, m=PROBS)
def test_ball_worlds_follow_the_exact_law(stage, alice_filter, bob_filter, p, m):
    assert_exact(*bp._world_table(stage_config(stage, alice_filter, bob_filter, p, m)))


@pytest.mark.xfail(strict=True, reason="0.5 * (1 - p) * (m * m) underflows to 0.0 for m = "
                   "1e-200, yet both filter mismatches occur with probability 2**-106")
def test_a_tiny_mismatch_probability_keeps_its_worlds():
    assert_exact(*bp._world_table(stage_config(1, None, None, 0.15, 1e-200)))


@pytest.mark.parametrize("theta2", EDGE_ANGLES)
@pytest.mark.parametrize("description", ["alice", "bob"])
def test_the_exact_spin_law_folds_to_the_quantum_correlation(theta2, description):
    config = spin_config(0.0, theta2, description)
    coins, worlds = mc._world_table(config)
    cells, registered = fold(worlds, assert_exact(coins, worlds))
    assert sum(registered) == 1
    freq = {pair: cells[0][pair] + cells[1][pair] for pair in SIGN_PAIRS}
    mean1 = sum(a * f for (a, _), f in freq.items())
    mean2 = sum(b * f for (_, b), f in freq.items())
    covariance = sum(a * b * f for (a, b), f in freq.items()) - mean1 * mean2
    assert abs(covariance - Fraction(quantum_correlation(config.axis1, config.axis2))) <= ULPS


@pytest.mark.parametrize("stage", [1, 2, 3])
@pytest.mark.parametrize("p", EDGE_PROBS)
@pytest.mark.parametrize("m", EDGE_PROBS)
def test_the_exact_ball_law_folds_to_the_analytic_report(stage, p, m):
    config = stage_config(stage, None, None, p, m)
    coins, worlds = bp._world_table(config)
    cells, registered = fold(worlds, assert_exact(coins, worlds))
    total = sum(registered)
    if total == 0:
        with pytest.raises(EmptyReportError):
            bp.analytic_stage_report(config)
        return
    report = bp.analytic_stage_report(config)
    for pair in SIGN_PAIRS:
        exact = (cells[0][pair] + cells[1][pair]) / total
        assert abs(Fraction(report.joint_freq[pair]) - exact) <= ULPS, pair
