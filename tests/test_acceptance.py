"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All statistical criteria use pinned seeds so the suite is
deterministic; tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from actor_oracles import find
from records import read_mc_csv

from bellsim import ballprotocol as bp
from bellsim import commoncause as cc
from bellsim import montecarlo as mc
from bellsim.report import record
from bellsim.spinmodel import (
    Description,
    Direction,
    HiddenVariable,
    angle_between,
    joint_outcome_prob,
    quantum_correlation,
    subquantum_correlation,
)

N = 1_000_000
SEED = 20240901
EXACT = 1e-12

OPTIMAL = (Direction(0.0), Direction(math.pi / 2), Direction(math.pi / 4),
           Direction(3 * math.pi / 4))


def announce(number: int, text: str) -> None:
    print(f"criterion {number:2d}: {text} ... PASS")


@pytest.fixture(scope="module")
def stage_reports():
    """One million-trial run per stage, shared by criteria 6, 7 and 8."""
    return tuple(
        bp.run_stage(bp.StageConfig(stage=stage, trials=N, seed=SEED))
        for stage in (1, 2, 3)
    )


def test_c01_quantum_correlation_analytic_and_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for t1, t2 in rng.uniform(0.0, 2.0 * math.pi, size=(1000, 2)):
        a, b = Direction(t1), Direction(t2)
        assert abs(quantum_correlation(a, b) + math.cos(angle_between(a, b))) <= EXACT

    pairs = np.random.default_rng(SEED).uniform(0.0, 2.0 * math.pi, size=(20, 2))
    for k, (t1, t2) in enumerate(pairs):
        a, b = Direction(t1), Direction(t2)
        target = quantum_correlation(a, b)
        stats = mc.run_experiment(mc.ExperimentConfig(a, b, N, seed=SEED, stream_id=k))
        three_se = 3.0 * math.sqrt(max(0.0, 1.0 - target**2) / N) + 9.0 / N
        assert abs(stats.covariance - target) <= three_se, (t1, t2)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(1, f"analytic -cos(phi) at 1e-12 x1000; MC within 3 SE x20 ({elapsed:.1f}s)")


def test_c02_subquantum_correlation_vanishes():
    rng = np.random.default_rng(SEED + 1)
    for t_axis, t_other in rng.uniform(0.0, 2.0 * math.pi, size=(1000, 2)):
        axis, other = Direction(t_axis), Direction(t_other)
        for sign in (1, -1):
            alice_anchored = HiddenVariable(axis, sign)
            assert abs(subquantum_correlation(alice_anchored, axis, other)) <= EXACT
            bob_anchored = HiddenVariable(other, sign)
            assert abs(subquantum_correlation(bob_anchored, axis, other)) <= EXACT
    announce(2, "subquantum correlation 0 at 1e-12 for 1000 angles x both signs x both forms")


def test_c03_certainty_and_anticorrelation(tmp_path):
    for theta in (0.0, 1.0, 4.5):
        axis = Direction(theta)
        for r in (1, -1):
            lam = HiddenVariable(axis, r)
            assert joint_outcome_prob(lam, axis, axis, r, r) == 0.0
            assert joint_outcome_prob(lam, axis, axis, r, -r) == 1.0
    for seed in (0, 1, SEED):
        for description in (Description.ALICE, Description.BOB):
            cfg = mc.ExperimentConfig(
                Direction(0.7), Direction(0.7), 100_000, description, seed
            )
            stats = mc.run_experiment(cfg, csv_out=tmp_path / "trials.csv")
            arrays = read_mc_csv(tmp_path / "trials.csv")
            assert np.all(arrays.outcome2 == -arrays.outcome1)
            assert stats.counts[(1, 1)] == 0 and stats.counts[(-1, -1)] == 0
    announce(3, "equal axes: opposite outcomes in 100% of trials; same-sign probability 0")


def test_c04_description_equivalence():
    for phi in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2.3):
        comp = mc.description_equivalence(Direction(0.0), Direction(phi), N, seed=SEED)
        assert abs(comp.alice.covariance - comp.analytic) <= comp.tolerance, phi
        assert abs(comp.bob.covariance - comp.analytic) <= comp.tolerance, phi
        assert comp.discrepancy <= comp.combined_tolerance, phi
        assert comp.passed
    announce(4, "Alice and Bob descriptions match -cos(phi) and each other at 5 angle pairs")


def test_c05_common_cause_certification():
    def screening_and_factorization(model):
        report = cc.full_report(model)
        return [find(report.conditions, "name", name) for name in (
            "screening_given_z", "screening_given_not_z",
            "factorization_given_z", "factorization_given_not_z")]

    rng = np.random.default_rng(SEED + 2)
    for t1, t2 in rng.uniform(0.0, 2.0 * math.pi, size=(200, 2)):
        model = cc.spin_event_model(Direction(t1), Direction(t2))
        for result in screening_and_factorization(model):
            assert result.holds
            if not result.vacuous:
                assert result.margin <= 1e-9

    biases = [0.15] + list(rng.uniform(0.001, 0.999, size=50))
    for p in biases:
        cfg = bp.StageConfig(stage=1, trials=1, p_stage1=float(p))
        model = cc.ball_event_model(bp.analytic_stage_report(cfg))
        for result in screening_and_factorization(model):
            assert result.holds
    stage1 = bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1))
    assert cc.full_report(cc.ball_event_model(stage1)).certified
    announce(5, "screening-off and factorization hold: spin x200 angles, ball x51 biases")


def test_c06_stage_frequency_tables(stage_reports):
    tol = 4.0 / math.sqrt(N)
    expected = {
        1: ({(1, 1): 0.075, (1, -1): 0.425, (-1, 1): 0.425, (-1, -1): 0.075}, -0.7),
        2: ({(1, 1): 0.02, (1, -1): 0.48, (-1, 1): 0.48, (-1, -1): 0.02}, -0.92),
        3: ({(1, 1): 0.02, (1, -1): 0.48, (-1, 1): 0.48, (-1, -1): 0.02}, -0.92),
    }
    for report in stage_reports:
        freqs, corr = expected[report.stage]
        for pair, target in freqs.items():
            assert abs(report.joint_freq[pair] - target) <= tol, (report.stage, pair)
        assert abs(report.correlation - corr) <= tol
    announce(6, "stage tables (0.075/0.425 and 0.02/0.48) and correlations within 4/sqrt(N)")


def test_c07_conditional_correlations_vanish(stage_reports):
    tol = 4.0 / math.sqrt(N / 2)
    for report in stage_reports:
        for stats in report.algorithms:
            assert abs(stats.correlation) <= tol
    for stage in (1, 2, 3):
        analytic = bp.analytic_stage_report(bp.StageConfig(stage=stage, trials=1))
        for stats in analytic.algorithms:
            assert stats.correlation == pytest.approx(0.0, abs=EXACT)
    announce(7, "per-algorithm correlations 0: empirically within tolerance, analytically exact")


def test_c08_inequality_violation_and_decomposition(stage_reports):
    configs = tuple(bp.StageConfig(stage=s, trials=1) for s in (1, 2, 3))
    analytic = bp.bell_inequality_check(tuple(bp.analytic_stage_report(c) for c in configs))
    assert analytic.lhs == pytest.approx(0.075, abs=EXACT)
    assert analytic.rhs == pytest.approx(0.04, abs=EXACT)
    assert analytic.violated

    empirical = bp.bell_inequality_check(stage_reports)
    assert abs(empirical.lhs - 0.075) <= 0.002
    assert abs(empirical.rhs - 0.04) <= 0.002
    assert empirical.violated

    for config in configs:
        for a in (1, -1):
            for b in (1, -1):
                record = bp.contextual_decomposition(config, a, b)
                assert record.difference <= EXACT
    announce(8, "inequality: analytic 0.075 > 0.04, empirical within 0.002; "
                "decomposition exact")


def test_c09_chsh_extension():
    analytic = mc.chsh_details(*OPTIMAL, mode="analytic")
    assert abs(abs(analytic.value) - 2.0 * math.sqrt(2.0)) <= EXACT
    assert abs(analytic.value) > 2.0

    empirical = mc.chsh_details(*OPTIMAL, mode="empirical", trials=N, seed=SEED)
    assert abs(empirical.value - analytic.value) <= 0.02
    assert abs(empirical.value) > 2.0

    for details in (analytic, empirical):
        assert "derived demonstration" in details.note
        assert "derived demonstration" in record(details)["note"]
    announce(9, "CHSH |S| = 2*sqrt(2) analytic at 1e-12, empirical within 0.02, "
                "labeled derived")


def _cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "bellsim.cli", *args], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_c10_reproducibility():
    mc_args = ("mc-run", "--phi", "60deg", "--trials", "50000", "--seed", str(SEED),
               "--format", "json", "--no-timestamp")
    baseline = _cli(*mc_args)
    assert _cli(*mc_args) == baseline
    for workers in ("2", "8"):
        assert _cli(*mc_args, "--workers", workers) == baseline
    assert json.loads(baseline)["passed"] is True

    ball_args = ("ball-protocol", "--all-stages", "--trials", "50000", "--seed", str(SEED),
                 "--format", "json", "--no-timestamp")
    ball_baseline = _cli(*ball_args)
    assert _cli(*ball_args) == ball_baseline
    for workers in ("2", "8"):
        assert _cli(*ball_args, "--workers", workers) == ball_baseline
    announce(10, "byte-identical reports across repeats and worker counts 1/2/8")
