"""Ball protocol: algorithms, detection, stage runs, inequality, decomposition."""

import math

import numpy as np
import pytest
from actor_oracles import (
    ALICE,
    BOB,
    DetectionRecord,
    SignedBall,
    find,
    generator,
    observer_detect,
    sam_emit,
    stage_algorithms,
)
from float_oracles import stage_counts
from hypothesis import given
from hypothesis import strategies as st
from records import read_stage_csv

from bellsim import ballprotocol as bp
from bellsim.errors import EmptyReportError, ValidationError
from bellsim.report import record
from bellsim.rng import CHUNK_TRIALS

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def labels(quadruple):
    return tuple(ball.label() for ball in quadruple)


class TestAlgorithmTables:
    def test_stage1_first_algorithm_rows(self):
        a1, _ = stage_algorithms(1, 0.15)
        table = {labels(q): p for q, p in a1.emission_table().items()}
        assert table[("a_A+", "b_A-", "b_B+", "a_B-")] == 0.15
        assert table[("a_A+", "b_A+", "b_B-", "a_B-")] == 0.85

    def test_stage1_mirror_rows(self):
        _, a2 = stage_algorithms(1, 0.15)
        table = {labels(q): p for q, p in a2.emission_table().items()}
        assert table[("a_A-", "b_A-", "b_B+", "a_B+")] == 0.85
        assert table[("a_A-", "b_A+", "b_B-", "a_B+")] == 0.15

    def test_stage2_rows(self):
        a1p, a2p = stage_algorithms(2, 0.04)
        assert a1p.algorithm_id == "A1'"
        table = {labels(q): p for q, p in a1p.emission_table().items()}
        assert table[("a_A+", "c_A-", "c_B+", "a_B-")] == 0.04
        assert table[("a_A+", "c_A+", "c_B-", "a_B-")] == pytest.approx(0.96)
        assert a2p.fixed_alice_sign == -1

    def test_stage3_rows(self):
        a1pp, _ = stage_algorithms(3, 0.04)
        table = {labels(q): p for q, p in a1pp.emission_table().items()}
        assert table[("c_A+", "b_A-", "b_B+", "c_B-")] == 0.04
        assert table[("c_A+", "b_A+", "b_B-", "c_B-")] == pytest.approx(0.96)

    def test_mirror_is_full_sign_flip(self):
        first, second = stage_algorithms(1, 0.3)
        for correlated in (True, False):
            flipped = tuple(
                SignedBall(b.color, -b.sign, b.addressee)
                for b in first.quadruple(correlated)
            )
            assert second.quadruple(correlated) == flipped

    @given(st.sampled_from([1, 2, 3]), probs, st.booleans())
    def test_anticorrelation_rule_always_holds(self, stage, p, correlated):
        for algorithm in stage_algorithms(stage, p):
            quadruple = algorithm.quadruple(correlated)
            by_color = {}
            for ball in quadruple:
                by_color.setdefault(ball.color, []).append(ball)
            for balls in by_color.values():
                assert len(balls) == 2
                assert balls[0].addressee != balls[1].addressee
                assert balls[0].sign == -balls[1].sign


class TestSamEmit:
    def test_roughly_fair_algorithm_choice(self):
        cfg = bp.StageConfig(stage=1, trials=1, seed=0)
        stream = cfg.stream()
        picks = [sam_emit(cfg, generator(stream, i))[0] for i in range(4000)]
        frac = picks.count("A1") / len(picks)
        assert 0.45 < frac < 0.55

    def test_deterministic(self):
        cfg = bp.StageConfig(stage=2, trials=1, seed=12)
        first = [sam_emit(cfg, generator(cfg.stream(), i)) for i in range(100)]
        second = [sam_emit(cfg, generator(cfg.stream(), i)) for i in range(100)]
        assert first == second


class TestObserverDetect:
    def test_records_matching_color(self):
        balls = (
            SignedBall("a", 1, ALICE),
            SignedBall("b", -1, ALICE),
        )
        rec = observer_detect(balls, "a")
        assert rec.registered and rec.color == "a" and rec.sign == 1
        assert rec.passages == 2

    def test_no_matching_color_counts_passages_only(self):
        balls = (
            SignedBall("a", 1, BOB),
            SignedBall("b", -1, BOB),
        )
        rec = observer_detect(balls, "c")
        assert not rec.registered and rec.color is None and rec.sign is None
        assert rec.passages == 2

    def test_negative_sign_recorded(self):
        balls = (
            SignedBall("a", -1, ALICE),
            SignedBall("c", 1, ALICE),
        )
        rec = observer_detect(balls, "a")
        assert rec.registered and rec.sign == -1

    def test_rejects_mixed_addressees(self):
        balls = (
            SignedBall("a", 1, ALICE),
            SignedBall("b", -1, BOB),
        )
        with pytest.raises(ValidationError):
            observer_detect(balls, "a")


def _other(filters, chosen):
    return filters[1] if chosen == filters[0] else filters[0]


class TestActorPathEquivalence:
    @staticmethod
    def check_against_actor_path(cfg, path):
        assert bp.run_stage(cfg, csv_out=path) == bp.run_stage(cfg)
        rows = read_stage_csv(path)
        assert len(rows) == cfg.trials
        stream = cfg.stream()
        m = cfg.filter_mismatch_prob
        for i in range(cfg.trials):
            rng = generator(stream, i)
            algorithm_id, quadruple = sam_emit(cfg, rng)
            # Draws 3 and 4 of the trial decide each observer's filter mismatch.
            alice_filter = _other(bp.ALICE_FILTERS, cfg.alice_filter) \
                if rng.random() < m else cfg.alice_filter
            bob_filter = _other(bp.BOB_FILTERS, cfg.bob_filter) \
                if rng.random() < m else cfg.bob_filter
            alice = observer_detect(quadruple[:2], alice_filter)
            bob = observer_detect(quadruple[2:], bob_filter)
            # A color and sign are written only for an observer who registered.
            assert rows[i] == {
                "trial": str(i),
                "algorithm": algorithm_id,
                "alice_color": alice_filter if alice.registered else "",
                "alice_sign": str(alice.sign) if alice.registered else "",
                "bob_color": bob_filter if bob.registered else "",
                "bob_sign": str(bob.sign) if bob.registered else "",
                "registered": str(int(alice.registered and bob.registered)),
            }

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_vectorized_matches_per_trial_loop(self, stage, tmp_path):
        self.check_against_actor_path(
            bp.StageConfig(stage=stage, trials=2048, seed=77), tmp_path / "stage.csv"
        )

    @pytest.mark.parametrize(
        "stage,filters,mismatch",
        [(1, (None, None), 0.1), (2, (None, None), 0.1), (3, (None, None), 0.1),
         (2, (None, "b"), 1.0), (1, ("c", None), 0.1), (1, ("c", None), 0.5)]
        # Every stage and admissible filter pair: each meets all 16 worlds.
        # Stage 1's (c, b) is the (c, None) case above.
        + [(stage, (a, b), 0.5) for stage in (1, 2, 3) for a in "ac" for b in "bc"
           if (stage, a, b) != (1, "c", "b")],
    )
    def test_filter_mismatch_matches_per_trial_loop(self, stage, filters, mismatch, tmp_path):
        cfg = bp.StageConfig(stage=stage, alice_filter=filters[0], bob_filter=filters[1],
                             trials=2048, seed=78, filter_mismatch_prob=mismatch)
        self.check_against_actor_path(cfg, tmp_path / "stage.csv")


class TestRunStage:
    def test_stage1_reproduces_expected_frequencies(self):
        report = bp.run_stage(bp.StageConfig(stage=1, trials=1_000_000, seed=11))
        tol = 4.0 / math.sqrt(report.trials)
        expected = {(1, 1): 0.075, (1, -1): 0.425, (-1, 1): 0.425, (-1, -1): 0.075}
        for pair, target in expected.items():
            assert abs(report.joint_freq[pair] - target) <= tol
        assert abs(report.correlation - (-0.7)) <= tol
        assert report.registered_trials == report.trials
        assert report.passages_per_observer == 2 * report.trials

    @pytest.mark.parametrize("stage", [2, 3])
    def test_late_stages_reproduce_expected_frequencies(self, stage):
        report = bp.run_stage(bp.StageConfig(stage=stage, trials=1_000_000, seed=11))
        tol = 4.0 / math.sqrt(report.trials)
        expected = {(1, 1): 0.02, (1, -1): 0.48, (-1, 1): 0.48, (-1, -1): 0.02}
        for pair, target in expected.items():
            assert abs(report.joint_freq[pair] - target) <= tol
        assert abs(report.correlation - (-0.92)) <= tol

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_marginal_fairness(self, stage):
        report = bp.run_stage(bp.StageConfig(stage=stage, trials=1_000_000, seed=19))
        bound = 4.0 / math.sqrt(report.trials)
        plus_a = report.joint_freq[(1, 1)] + report.joint_freq[(1, -1)]
        plus_b = report.joint_freq[(1, 1)] + report.joint_freq[(-1, 1)]
        assert abs(plus_a - 0.5) <= bound
        assert abs(plus_b - 0.5) <= bound

    @pytest.mark.parametrize("workers", [2, 5, 8])
    def test_worker_count_invariance(self, workers):
        cfg = bp.StageConfig(stage=1, trials=100_001, seed=23)
        assert bp.run_stage(cfg, workers=workers) == bp.run_stage(cfg)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "stage,filters,mismatch,p",
        [(1, (None, None), 0.0, 0.15), (2, (None, None), 0.1, 0.04),
         (2, (None, "b"), 1.0, 0.04), (1, ("c", None), 0.1, 0.15),
         (3, ("a", "c"), 0.1, 1.0), (1, (None, None), 0.1, 0.0)],
    )
    def test_matches_float_oracle(self, stage, filters, mismatch, p, workers):
        cfg = bp.StageConfig(stage=stage, alice_filter=filters[0], bob_filter=filters[1],
                             trials=2 * CHUNK_TRIALS + 1, seed=43, p_stage1=p, p_stage23=p,
                             filter_mismatch_prob=mismatch)
        report = bp.run_stage(cfg, workers=workers)
        # The 8-cell histogram the report was reduced from.
        cells = [round(alg.registered * alg.joint_freq[pair])
                 for alg in report.algorithms for pair in bp.SIGN_PAIRS]
        assert cells == stage_counts(cfg).tolist()

    def test_conditional_correlations_vanish_empirically(self):
        report = bp.run_stage(bp.StageConfig(stage=1, trials=200_000, seed=29))
        # Alice's sign is constant given the algorithm, so the sample
        # covariance cancels exactly, not just statistically.
        assert find(report.algorithms, "algorithm", "A1").correlation == 0.0
        assert find(report.algorithms, "algorithm", "A2").correlation == 0.0

    def test_algorithm_stage_mismatch_rejected(self):
        report = bp.run_stage(bp.StageConfig(stage=1, trials=1000, seed=1))
        with pytest.raises(ValidationError):
            find(report.algorithms, "algorithm", "A1'")

    def test_empty_registered_set_is_an_error(self):
        cfg = bp.StageConfig(
            stage=1, alice_filter="c", bob_filter="c",
            trials=1000, seed=1,
        )
        with pytest.raises(EmptyReportError):
            bp.run_stage(cfg)
        with pytest.raises(EmptyReportError):
            bp.analytic_stage_report(cfg)

    def test_same_color_filters_anticorrelate_perfectly(self):
        cfg = bp.StageConfig(
            stage=2, alice_filter="c", bob_filter="c",
            trials=50_000, seed=3,
        )
        report = bp.run_stage(cfg)
        assert report.pair_mean == -1.0

    def test_filter_mismatch_produces_unregistered_trials(self):
        cfg = bp.StageConfig(stage=1, trials=100_000, seed=5, filter_mismatch_prob=0.5)
        report = bp.run_stage(cfg)
        # Each observer misses with probability 1/2 (the alternate color is
        # cherry, absent from stage 1), so about one quarter registers.
        assert abs(report.registered_fraction - 0.25) < 0.01
        analytic = bp.analytic_stage_report(cfg)
        assert analytic.registered_fraction == pytest.approx(0.25, abs=1e-12)
        assert abs(report.correlation - analytic.correlation) < 0.02


class TestAnalyticStageReport:
    def test_stage1_table(self):
        report = bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1))
        assert report.joint_freq[(1, 1)] == pytest.approx(0.075, abs=1e-15)
        assert report.joint_freq[(1, -1)] == pytest.approx(0.425, abs=1e-15)
        assert report.joint_freq[(-1, 1)] == pytest.approx(0.425, abs=1e-15)
        assert report.joint_freq[(-1, -1)] == pytest.approx(0.075, abs=1e-15)
        assert report.correlation == pytest.approx(-0.7, abs=1e-12)
        assert report.registered_fraction == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("stage", [2, 3])
    def test_late_stage_tables(self, stage):
        report = bp.analytic_stage_report(bp.StageConfig(stage=stage, trials=1))
        assert report.joint_freq[(1, 1)] == pytest.approx(0.02, abs=1e-15)
        assert report.joint_freq[(1, -1)] == pytest.approx(0.48, abs=1e-15)
        assert report.correlation == pytest.approx(-0.92, abs=1e-12)

    def test_per_algorithm_statistics(self):
        report = bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1))
        a1 = find(report.algorithms, "algorithm", "A1")
        assert a1.alice_mean == pytest.approx(1.0, abs=1e-15)
        assert a1.bob_mean == pytest.approx(-0.7, abs=1e-12)
        assert a1.pair_mean == pytest.approx(-0.7, abs=1e-12)
        assert a1.correlation == pytest.approx(0.0, abs=1e-12)
        a2 = find(report.algorithms, "algorithm", "A2")
        assert a2.alice_mean == pytest.approx(-1.0, abs=1e-15)
        assert a2.correlation == pytest.approx(0.0, abs=1e-12)

    @given(st.sampled_from([1, 2, 3]), st.floats(min_value=0.001, max_value=0.999))
    def test_conditional_correlation_zero_for_any_bias(self, stage, p):
        cfg = bp.StageConfig(stage=stage, trials=1, p_stage1=p, p_stage23=p)
        report = bp.analytic_stage_report(cfg)
        for stats in report.algorithms:
            assert stats.correlation == pytest.approx(0.0, abs=1e-12)


def three_stage_configs(trials=1, seed=0, **kw):
    return tuple(bp.StageConfig(stage=s, trials=trials, seed=seed, **kw) for s in (1, 2, 3))


class TestBellInequality:
    def test_analytic_violation_at_default_parameters(self):
        reports = tuple(bp.analytic_stage_report(c) for c in three_stage_configs())
        result = bp.bell_inequality_check(reports)
        assert result.lhs == pytest.approx(0.075, abs=1e-15)
        assert result.rhs == pytest.approx(0.04, abs=1e-15)
        assert result.violated

    def test_no_violation_with_even_coins(self):
        configs = three_stage_configs(p_stage1=0.5, p_stage23=0.5)
        reports = tuple(bp.analytic_stage_report(c) for c in configs)
        result = bp.bell_inequality_check(reports)
        assert result.lhs == pytest.approx(0.25, abs=1e-12)
        assert result.rhs == pytest.approx(0.5, abs=1e-12)
        assert not result.violated

    def test_empirical_violation(self):
        reports = tuple(
            bp.run_stage(c) for c in three_stage_configs(trials=1_000_000, seed=37)
        )
        result = bp.bell_inequality_check(reports)
        assert abs(result.lhs - 0.075) < 0.002
        assert abs(result.rhs - 0.04) < 0.002
        assert result.violated

    def test_wrong_stage_order_rejected(self):
        reports = [bp.analytic_stage_report(c) for c in three_stage_configs()]
        with pytest.raises(ValidationError):
            bp.bell_inequality_check((reports[1], reports[0], reports[2]))

    def test_mismatched_filters_rejected(self):
        bad = bp.StageConfig(stage=2, alice_filter="c", trials=1)
        reports = (
            bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1)),
            bp.analytic_stage_report(bad),
            bp.analytic_stage_report(bp.StageConfig(stage=3, trials=1)),
        )
        with pytest.raises(ValidationError):
            bp.bell_inequality_check(reports)


class TestContextualDecomposition:
    def test_stage1_both_positive(self):
        record = bp.contextual_decomposition(bp.StageConfig(stage=1, trials=1), 1, 1)
        assert record.conditionals == {"A1": 0.15, "A2": 0.0}
        assert record.composed == pytest.approx(0.075, abs=1e-15)
        assert record.difference <= 1e-12

    def test_stage2_both_positive(self):
        record = bp.contextual_decomposition(bp.StageConfig(stage=2, trials=1), 1, 1)
        assert record.conditionals == {"A1'": 0.04, "A2'": 0.0}
        assert record.composed == pytest.approx(0.02, abs=1e-15)
        assert record.difference <= 1e-12

    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, -1]),
        st.sampled_from([1, -1]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_composition_matches_direct_frequency(self, stage, a, b, p):
        cfg = bp.StageConfig(stage=stage, trials=1, p_stage1=p, p_stage23=p)
        record = bp.contextual_decomposition(cfg, a, b)
        assert record.difference <= 1e-12

    def test_decomposition_matches_stage_distribution(self):
        cfg = bp.StageConfig(stage=1, trials=1)
        report = bp.analytic_stage_report(cfg)
        for (a, b), freq in report.joint_freq.items():
            record = bp.contextual_decomposition(cfg, a, b)
            assert record.direct == pytest.approx(freq, abs=1e-12)

    def test_mismatch_worlds_scale_conditionals(self):
        # The event names the chosen filter colors, so each observer's
        # device must not have flipped: both conditionals pick up (1-m)^2.
        m = 0.2
        cfg = bp.StageConfig(stage=1, trials=1, filter_mismatch_prob=m)
        record = bp.contextual_decomposition(cfg, 1, 1)
        assert record.conditionals["A1"] == pytest.approx(0.15 * (1 - m) ** 2, abs=1e-12)
        assert record.difference <= 1e-12


class TestFilterMismatchStages:
    def test_stage2_alternate_color_still_registers(self):
        # Alice's alternate filter is cherry, which stage 2 does send, so a
        # flipped device registers the variable ball instead of missing.
        cfg = bp.StageConfig(stage=2, trials=200_000, seed=51, filter_mismatch_prob=0.5)
        analytic = bp.analytic_stage_report(cfg)
        assert analytic.registered_fraction == pytest.approx(0.5, abs=1e-12)
        report = bp.run_stage(cfg)
        assert abs(report.registered_fraction - 0.5) < 0.01
        for pair in bp.SIGN_PAIRS:
            assert abs(report.joint_freq[pair] - analytic.joint_freq[pair]) < 0.01


class TestStructuralLocality:
    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_each_observer_reads_only_their_own_filter(self, stage):
        # What an observer writes depends on the source's coins and their
        # own device, never on the other observer's device.  The 16 worlds
        # hold both admissible filters of each observer.
        cfg = bp.StageConfig(stage=stage, trials=1, filter_mismatch_prob=0.5)
        alice, bob = {}, {}
        for world in bp._world_table(cfg)[1]:
            fields = world.row.split(",")
            alice.setdefault(world.code & 0b0111, set()).add(tuple(fields[2:4]))
            bob.setdefault(world.code & 0b1011, set()).add(tuple(fields[4:6]))
        assert all(len(seen) == 1 for seen in (*alice.values(), *bob.values()))

    def test_detection_takes_one_observers_balls_only(self):
        # The observer interface never sees the other wing: detection takes
        # one addressee's pair plus that observer's own filter, nothing else,
        # and rejects a pair spanning both observers.
        import inspect

        params = list(inspect.signature(observer_detect).parameters)
        assert params == ["balls", "filter_color"]

    def test_detection_record_carries_no_source_state(self):
        cfg = bp.StageConfig(stage=1, trials=1, seed=0)
        _, quadruple = sam_emit(cfg, generator(cfg.stream(), 0))
        record = observer_detect(quadruple[:2], cfg.alice_filter)
        fields = set(DetectionRecord.__dataclass_fields__)
        assert fields == {"registered", "color", "sign", "passages"}
        assert record.passages == 2


class TestSerialization:
    def test_invalid_filters_rejected(self):
        with pytest.raises(ValidationError):
            bp.StageConfig(stage=1, alice_filter="b", trials=1)
        with pytest.raises(ValidationError):
            bp.StageConfig(stage=1, bob_filter="a", trials=1)

    @pytest.mark.parametrize("field, value", [
        ("stage", True), ("trials", True), ("trials", 2.0), ("p_stage1", "0.5"), ("p_stage1", True),
        ("p_stage23", float("nan")), ("filter_mismatch_prob", None), ("stage", 1.0),
        ("alice_filter", "z"), ("bob_filter", 2),
    ])
    def test_non_numbers_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            bp.StageConfig(**{"stage": 1, field: value})

    def test_probabilities_stored_as_floats(self):
        cfg = bp.StageConfig(stage=1, trials=1, p_stage1=1, p_stage23=0,
                             filter_mismatch_prob=np.float32(0.5))
        assert [type(p) for p in (cfg.p_stage1, cfg.p_stage23, cfg.filter_mismatch_prob)] \
            == [float] * 3

    def test_report_json_is_serializable(self):
        import json

        report = bp.run_stage(bp.StageConfig(stage=1, trials=1000, seed=2))
        payload = json.loads(json.dumps(record(report)))
        assert payload["stage"] == 1
        assert set(payload["joint_freq"]) == {"++", "+-", "-+", "--"}

    def test_write_stage_csv(self, tmp_path):
        cfg = bp.StageConfig(stage=1, trials=50, seed=2)
        path = tmp_path / "stage.csv"
        assert bp.run_stage(cfg, csv_out=path) == bp.run_stage(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,algorithm,alice_color,alice_sign,bob_color,bob_sign,registered"
        assert len(lines) == 51
        cells = lines[1].split(",")
        assert cells[1] in ("A1", "A2")
        assert cells[2] == "a" and cells[4] == "b"
        assert cells[6] == "1"
