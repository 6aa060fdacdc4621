"""Monte Carlo engine: sampling, determinism, analytic agreement, CHSH."""

import math

import numpy as np
import pytest
from actor_oracles import (TrialRecord, generator, sample_hidden_variable, simulate_trial,
                           trial_words)
from float_oracles import mc_counts
from hypothesis import given
from hypothesis import strategies as st
from records import read_mc_csv

from bellsim import montecarlo as mc
from bellsim.errors import ValidationError
from bellsim.report import record
from bellsim.rng import CHUNK_TRIALS, SIGN_PAIRS, RngStream, fold, simulate, threshold
from bellsim.spinmodel import Direction, quantum_correlation

A0 = Direction(0.0)


def config(phi, trials, description="alice", seed=0, stream_id=0):
    return mc.ExperimentConfig(A0, Direction(phi), trials, description, seed, stream_id)


class TestSampleHiddenVariable:
    def test_balanced_at_default_seed(self):
        draws = trial_words(RngStream(0, 0), 1_000_000)[:, 0] >> np.uint64(11)
        frac_plus = float(np.mean(draws < threshold(0.5)))
        assert 0.499 <= frac_plus <= 0.501

    def test_deterministic_repeat(self):
        axis = Direction(0.3)
        first = [
            sample_hidden_variable(axis, generator(RngStream(5, 1), i)).first_particle
            for i in range(50)
        ]
        second = [
            sample_hidden_variable(axis, generator(RngStream(5, 1), i)).first_particle
            for i in range(50)
        ]
        assert first == second

    def test_anchored_to_requested_axis(self):
        axis = Direction(1.7)
        lam = sample_hidden_variable(axis, generator(RngStream(0)))
        assert lam.axis == axis
        assert lam.first_particle in (1, -1)


class TestSimulateTrial:
    def test_equal_axes_always_anticorrelated(self):
        cfg = config(0.0, 1)
        for i in range(500):
            rec = simulate_trial(cfg, generator(cfg.stream(), i))
            assert rec.outcome2 == -rec.outcome1

    @pytest.mark.parametrize("description", ["alice", "bob"])
    def test_matches_vectorized_engine(self, description, tmp_path):
        cfg = config(1.1, 4096, description=description, seed=31)
        mc.run_experiment(cfg, csv_out=tmp_path / "trials.csv")
        rows = read_mc_csv(tmp_path / "trials.csv")
        assert rows.trial.tolist() == list(range(cfg.trials))
        for i, row in enumerate(rows):
            rec = simulate_trial(cfg, generator(cfg.stream(), i))
            assert rec == TrialRecord(row.lambda_sign, row.outcome1, row.outcome2)

    def test_anchored_observer_reads_off_hidden_variable(self):
        cfg = config(0.9, 1, description="bob", seed=2)
        rec = simulate_trial(cfg, generator(cfg.stream(), 0))
        assert rec.outcome2 == -rec.lambda_sign


class TestRunExperiment:
    def test_sixty_degrees_matches_analytic(self):
        cfg = config(math.pi / 3, 1_000_000, seed=7)
        stats = mc.run_experiment(cfg)
        tol = mc.covariance_tolerance(-0.5, cfg.trials)
        assert abs(stats.covariance - (-0.5)) <= tol

    def test_equal_axes_exact_anticorrelation(self):
        for seed in (0, 1, 99):
            stats = mc.run_experiment(config(0.0, 100_000, seed=seed))
            assert stats.counts[(1, 1)] == 0 and stats.counts[(-1, -1)] == 0
            assert stats.pair_mean == -1.0
            assert abs(stats.covariance + 1.0) <= 9.0 / stats.trials

    def test_orthogonal_axes_near_zero(self):
        stats = mc.run_experiment(config(math.pi / 2, 1_000_000, seed=3))
        assert abs(stats.covariance) < 0.004

    def test_marginals_vanish(self):
        stats = mc.run_experiment(config(1.234, 1_000_000, seed=17))
        bound = 4.0 / math.sqrt(stats.trials)
        assert abs(stats.mean1) < bound and abs(stats.mean2) < bound

    def test_histogram_sums_to_trials(self):
        stats = mc.run_experiment(config(0.77, 12345, seed=5))
        assert sum(stats.counts.values()) == stats.trials

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_invariance(self, workers):
        cfg = config(0.6, 100_001, seed=13)
        assert mc.run_experiment(cfg, workers=workers) == mc.run_experiment(cfg)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("description", ["alice", "bob"])
    @pytest.mark.parametrize("phi", [0.0, 1.1, math.pi])
    def test_matches_float_oracle(self, phi, description, workers):
        cfg = config(phi, 2 * CHUNK_TRIALS + 1, description, seed=41, stream_id=1)
        assert tuple(mc.run_experiment(cfg, workers=workers).counts.values()) == mc_counts(cfg)

    def test_repeat_runs_identical(self):
        cfg = config(0.6, 50_000, seed=13)
        assert mc.run_experiment(cfg) == mc.run_experiment(cfg)

    def test_plus_plus_frequency_at_sixty_degrees(self):
        # Oracle: half the trials anchor the hidden variable at +1, and only
        # those can produce (+,+), with probability (1 - cos(pi/3))/2.
        expected = 0.5 * 0.5 * (1.0 - math.cos(math.pi / 3))
        stats = mc.run_experiment(config(math.pi / 3, 1_000_000, seed=0))
        assert stats.counts[(1, 1)] / stats.trials == pytest.approx(expected, abs=0.002)

    def test_conditional_frequency_at_right_angle(self, tmp_path):
        cfg = config(math.pi / 2, 1_000_000, seed=0)
        mc.run_experiment(cfg, csv_out=tmp_path / "trials.csv")
        arrays = read_mc_csv(tmp_path / "trials.csv")
        sel = arrays.outcome1 == 1
        freq = float(np.mean(arrays.outcome2[sel] == 1))
        assert 0.497 <= freq <= 0.503

    def test_per_lambda_conditional_matches_model(self, tmp_path):
        phi = 1.05
        cfg = config(phi, 400_000, seed=21)
        mc.run_experiment(cfg, csv_out=tmp_path / "trials.csv")
        arrays = read_mc_csv(tmp_path / "trials.csv")
        for sign in (1, -1):
            sel = arrays.lambda_sign == sign
            n = int(np.sum(sel))
            freq = float(np.mean(arrays.outcome2[sel] == 1))
            expected = 0.5 * (1.0 - sign * math.cos(phi))
            assert abs(freq - expected) <= 5.0 / math.sqrt(n)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            mc.ExperimentConfig(A0, A0, 0)

    @pytest.mark.parametrize("trials", [True, 2.0, "10", None])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValidationError):
            mc.ExperimentConfig(A0, A0, trials)
        with pytest.raises(ValidationError):
            mc.covariance_tolerance(0.5, trials)

    def test_tolerance_needs_trials(self):
        with pytest.raises(ValidationError, match="trials"):
            mc.covariance_tolerance(0.5, 0)


class TestWorldTable:
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.sampled_from(["alice", "bob"]))
    def test_world_probabilities_fold_to_the_singlet_correlation(
        self, theta1, theta2, description
    ):
        cfg = mc.ExperimentConfig(Direction(theta1), Direction(theta2), 1, description)
        _, worlds = mc._world_table(cfg)
        assert [world.code for world in worlds] == list(range(8))
        assert abs(sum(world.prob for world in worlds) - 1.0) <= 1e-15
        cells, _ = fold(worlds)
        pair_mean = sum(a * b * (cells[0][(a, b)] + cells[1][(a, b)]) for a, b in SIGN_PAIRS)
        analytic = quantum_correlation(cfg.axis1, cfg.axis2)
        assert abs(pair_mean - analytic) <= 1e-12

    @pytest.mark.parametrize("description", ["alice", "bob"])
    def test_no_world_of_probability_zero_occurs(self, description):
        # Coins 1 and 2 compare the same draw, so one of their mixed states never occurs.
        cfg = config(math.pi / 3, 1_000_000, description, seed=1)
        coins, worlds = mc._world_table(cfg)
        counts = simulate(cfg.stream(), cfg.trials, coins, worlds)
        assert [counts[w.code] for w in worlds if w.prob == 0.0] == [0, 0]

    @pytest.mark.parametrize("description", ["alice", "bob"])
    @pytest.mark.parametrize("degrees", [30, 60, 135])
    def test_world_counts_fit_the_world_probabilities(self, degrees, description):
        # G-test: six possible worlds give 5 degrees of freedom, whose 1e-3 critical value
        # is 20.515 (chi-squared inverse survival function).
        cfg = config(math.radians(degrees), 1_000_000, description, seed=1,
                     stream_id=0 if description == "alice" else 1)  # as mc-run does
        coins, worlds = mc._world_table(cfg)
        counts = simulate(cfg.stream(), cfg.trials, coins, worlds)
        expected = [w.prob * cfg.trials for w in worlds]
        assert sum(e > 0 for e in expected) == 6
        g = 2.0 * sum(c * math.log(c / e) for c, e in zip(counts, expected) if c)
        assert g < 20.515


class TestDescriptionEquivalence:
    def test_quarter_pi(self):
        comp = mc.description_equivalence(A0, Direction(math.pi / 4), 1_000_000, seed=8)
        target = -math.cos(math.pi / 4)
        assert abs(comp.alice.covariance - target) < 0.006
        assert abs(comp.bob.covariance - target) < 0.006
        assert comp.discrepancy < 0.006
        assert comp.passed

    def test_equal_axes(self):
        comp = mc.description_equivalence(A0, A0, 100_000, seed=4)
        assert comp.alice.pair_mean == -1.0 and comp.bob.pair_mean == -1.0
        assert comp.passed

    def test_antiparallel_axes(self):
        comp = mc.description_equivalence(A0, Direction(math.pi), 100_000, seed=4)
        assert comp.alice.pair_mean == 1.0 and comp.bob.pair_mean == 1.0
        assert comp.analytic == pytest.approx(1.0, abs=1e-12)
        assert comp.passed

    def test_uses_independent_streams(self):
        comp = mc.description_equivalence(A0, Direction(0.5), 10_000, seed=8)
        assert comp.alice.counts != comp.bob.counts


OPTIMAL = (Direction(0.0), Direction(math.pi / 2), Direction(math.pi / 4),
           Direction(3 * math.pi / 4))


class TestChsh:
    def test_analytic_optimal_angles(self):
        # Oracle: direct cosine substitution into the CHSH combination.
        a, ap, b, bp = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
        expected = (
            -math.cos(b - a) + math.cos(bp - a) - math.cos(b - ap) - math.cos(bp - ap)
        )
        value = mc.chsh_details(*OPTIMAL).value
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)

    def test_all_directions_equal(self):
        a = Direction(0.3)
        assert mc.chsh_details(a, a, a, a).value == pytest.approx(-2.0, abs=1e-12)

    def test_empirical_optimal_angles(self):
        value = mc.chsh_details(*OPTIMAL, mode="empirical", trials=1_000_000, seed=20240901).value
        assert value == pytest.approx(-2.0 * math.sqrt(2.0), abs=0.012)

    def test_exceeds_local_bound_in_both_modes(self):
        assert abs(mc.chsh_details(*OPTIMAL).value) > 2.0
        emp = mc.chsh_details(*OPTIMAL, mode="empirical", trials=200_000, seed=6).value
        assert abs(emp) > 2.0

    def test_contexts_use_distinct_streams(self):
        details = mc.chsh_details(*OPTIMAL, mode="empirical", trials=5_000, seed=1)
        histograms = [tuple(ctx.stats.counts.values()) for ctx in details.contexts]
        assert len(set(histograms)) == len(histograms)

    def test_labeled_as_derived(self):
        for mode in ("analytic", "empirical"):
            details = mc.chsh_details(*OPTIMAL, mode=mode, trials=1_000, seed=1)
            assert "derived demonstration" in details.note
            assert "derived demonstration" in record(details)["note"]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            mc.chsh_details(*OPTIMAL, mode="exact")


class TestEmpiricalStats:
    def test_from_counts_consistency(self):
        stats = mc.EmpiricalStats.from_counts((10, 20, 30, 40), 100)
        assert stats.mean1 == pytest.approx((10 + 20 - 30 - 40) / 100)
        assert stats.mean2 == pytest.approx((10 - 20 + 30 - 40) / 100)
        assert stats.pair_mean == pytest.approx((10 - 20 - 30 + 40) / 100)
        assert stats.covariance == pytest.approx(stats.pair_mean - stats.mean1 * stats.mean2)

    def test_rejects_inconsistent_totals(self):
        with pytest.raises(ValidationError):
            mc.EmpiricalStats.from_counts((1, 2, 3, 4), 11)

    def test_json_round_trippable(self):
        import json

        stats = mc.run_experiment(config(0.3, 1000, seed=1))
        payload = json.dumps(record(stats))
        assert json.loads(payload)["trials"] == 1000


def test_write_trials_csv(tmp_path):
    cfg = config(0.8, 200, seed=3)
    path = tmp_path / "trials.csv"
    assert mc.run_experiment(cfg, csv_out=path) == mc.run_experiment(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,lambda_sign,outcome1,outcome2"
    assert len(lines) == 201
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(v in ("1", "-1") for v in first[1:])
