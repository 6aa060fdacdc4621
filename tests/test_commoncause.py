"""Common-cause conditions: relevance, screening off, factorization, certification."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from actor_oracles import find, mixed_joint_cells
from hypothesis import given
from hypothesis import strategies as st

from bellsim import ballprotocol as bp
from bellsim import commoncause as cc
from bellsim.errors import ConditioningUndefinedError, EmptyReportError, ValidationError
from bellsim.spinmodel import Direction


@st.composite
def models(draw):
    """Random well-formed binary event models."""
    p_z = draw(st.floats(min_value=0.05, max_value=0.95))

    def table():
        cells = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(4)]
        total = sum(cells)
        return ((cells[0] / total, cells[1] / total), (cells[2] / total, cells[3] / total))

    return cc.BinaryEventModel(p_z=p_z, joint_given_z=table(), joint_given_not_z=table())


def independent_model():
    table = ((0.25, 0.25), (0.25, 0.25))
    return cc.BinaryEventModel(p_z=0.5, joint_given_z=table, joint_given_not_z=table)


class TestBinaryEventModel:
    def test_rejects_unnormalized_table(self):
        with pytest.raises(ValidationError, match="joint_given_z"):
            cc.BinaryEventModel(0.5, ((0.5, 0.5), (0.5, 0.5)), ((0.25,) * 2, (0.25,) * 2))

    def test_rejects_bad_p_z(self):
        table = ((0.25, 0.25), (0.25, 0.25))
        with pytest.raises(ValidationError):
            cc.BinaryEventModel(1.5, table, table)

    def test_accepts_numpy_numbers(self):
        table = np.array([[1, 0], [0, 0]], dtype=np.int64)
        model = cc.BinaryEventModel(np.float32(0.5), table, table)
        assert model.p_z == 0.5 and model.joint_given_z == ((1.0, 0.0), (0.0, 0.0))

    def test_json_round_trip(self):
        model = cc.spin_event_model(Direction(0.0), Direction(1.0))
        again = cc.binary_event_model_from_json_dict(asdict(model))
        assert again == model

    def test_json_error_names_offending_table(self):
        data = {
            "p_z": 0.5,
            "joint_given_z": [[0.25, 0.25], [0.25, 0.25]],
            "joint_given_not_z": [[0.9, 0.3], [0.1, 0.1]],
        }
        with pytest.raises(ValidationError, match="joint_given_not_z"):
            cc.binary_event_model_from_json_dict(data)

    def test_json_missing_field(self):
        with pytest.raises(ValidationError, match="missing"):
            cc.binary_event_model_from_json_dict({"p_z": 0.5})

    @given(models())
    def test_law_of_total_probability(self, model):
        cells = mixed_joint_cells(model)
        assert model.p_xy() == pytest.approx(cells[0][0], abs=1e-9)
        assert model.p_x() == pytest.approx(cells[0][0] + cells[0][1], abs=1e-9)
        assert model.p_y() == pytest.approx(cells[0][0] + cells[1][0], abs=1e-9)
        assert sum(v for row in cells for v in row) == pytest.approx(1.0, abs=1e-9)

    @given(models())
    def test_orientation_flips_preserve_normalization(self, model):
        for variant in (model.with_flipped_x(), model.with_flipped_y()):
            total = sum(v for row in variant.joint_given_z for v in row)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_statistical_tolerance(self):
        table = ((0.25, 0.25), (0.25, 0.25))
        model = cc.BinaryEventModel(0.5, table, table, sample_size=10_000)
        assert model.default_tolerance() == pytest.approx(0.04)


class TestCauseRelevance:
    def test_independent_model(self):
        rx, ry = cc.check_cause_relevance(independent_model())
        assert (bool(rx), bool(ry)) == (False, False)

    def test_degenerate_cause_rejected(self):
        table = ((0.25, 0.25), (0.25, 0.25))
        model = cc.BinaryEventModel(0.0, table, table)
        with pytest.raises(ConditioningUndefinedError):
            cc.check_cause_relevance(model)

    def test_spin_model_at_sixty_degrees(self):
        # With both events oriented positive, the cause makes x certain but
        # makes y *less* likely below a right angle, so only the first
        # relevance inequality holds in this orientation.
        model = cc.spin_event_model(Direction(0.0), Direction(math.pi / 3))
        rx, ry = cc.check_cause_relevance(model)
        assert rx.holds and rx.lhs == 1.0 and rx.rhs == 0.0
        assert not ry.holds
        assert ry.lhs == pytest.approx(0.25, abs=1e-12)
        assert ry.rhs == pytest.approx(0.75, abs=1e-12)

    def test_spin_model_beyond_right_angle(self):
        model = cc.spin_event_model(Direction(0.0), Direction(2 * math.pi / 3))
        rx, ry = cc.check_cause_relevance(model)
        assert rx.holds and ry.holds

    def test_ball_model_orientation_dependence(self):
        model = cc.ball_event_model(bp.StageConfig(stage=1, trials=1))
        rx, ry = cc.check_cause_relevance(model)
        assert rx.holds and rx.lhs == 1.0 and rx.rhs == 0.0
        assert not ry.holds  # P(b+|first) = 0.15 < P(b+|mirror) = 0.85
        flipped = cc.check_cause_relevance(model.with_flipped_y())
        assert flipped[0].holds and flipped[1].holds


class TestScreeningOff:
    def test_ball_model_screens_off(self):
        model = cc.ball_event_model(bp.StageConfig(stage=1, trials=1))
        s_z, s_not_z = cc.check_screening_off(model)
        assert s_z.holds and s_not_z.holds
        # Given the first algorithm, Alice's event is certain, so holding it
        # fixed leaves Bob's frequency at its conditional value.
        assert s_z.lhs == pytest.approx(0.15, abs=1e-12)
        assert s_z.vacuous  # the not-x branch has probability zero

    def test_spin_model_vacuous_branch_passes(self):
        model = cc.spin_event_model(Direction(0.0), Direction(1.0))
        s_z, s_not_z = cc.check_screening_off(model)
        assert s_z.holds and s_z.vacuous
        assert s_not_z.holds and s_not_z.vacuous

    def test_constructed_counterexample_fails(self):
        model = cc.BinaryEventModel(
            0.5,
            ((0.45, 0.05), (0.05, 0.45)),  # P(y|z&x)=0.9 vs P(y|z&~x)=0.1
            ((0.25, 0.25), (0.25, 0.25)),
        )
        s_z, s_not_z = cc.check_screening_off(model)
        assert not s_z.holds
        assert s_z.lhs == pytest.approx(0.9) and s_z.rhs == pytest.approx(0.1)
        assert s_not_z.holds


class TestFactorization:
    def test_spin_model_factorizes_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            model = cc.spin_event_model(Direction(t1), Direction(t2))
            f_z, f_not_z = cc.check_factorization(model)
            assert f_z.holds and f_z.margin <= 1e-9
            assert f_not_z.holds and f_not_z.margin <= 1e-9

    def test_ball_model_at_default_and_random_parameters(self):
        rng = np.random.default_rng(7)
        biases = [0.15] + list(rng.uniform(0.001, 0.999, size=50))
        for p in biases:
            cfg = bp.StageConfig(stage=1, trials=1, p_stage1=float(p))
            model = cc.ball_event_model(cfg)
            assert all(cc.check_factorization(model))
            assert all(cc.check_screening_off(model))

    def test_unconditional_joint_shows_spurious_correlation(self):
        model = cc.ball_event_model(bp.StageConfig(stage=1, trials=1))
        assert model.p_xy() == pytest.approx(0.075, abs=1e-12)
        assert model.p_x() * model.p_y() == pytest.approx(0.25, abs=1e-12)
        assert model.covariance() == pytest.approx(-0.175, abs=1e-12)


class TestFullReport:
    def test_ball_model_certified(self):
        report = cc.full_report(cc.ball_event_model(bp.StageConfig(stage=1, trials=1)))
        assert report.certified
        assert report.unconditional_joint == pytest.approx(0.075, abs=1e-12)
        assert report.product_of_marginals == pytest.approx(0.25, abs=1e-12)

    def test_spin_model_certified(self):
        report = cc.full_report(cc.spin_event_model(Direction(0.0), Direction(math.pi / 3)))
        assert report.certified
        assert report.covariance == pytest.approx(-0.25 * math.cos(math.pi / 3), abs=1e-12)

    def test_product_distribution_not_certified(self):
        report = cc.full_report(independent_model())
        assert not report.certified
        assert abs(report.covariance) <= 1e-12
        assert all(find(report.conditions, "name", n).holds for n in (
            "screening_given_z", "screening_given_not_z",
            "factorization_given_z", "factorization_given_not_z",
        ))

    def test_orientation_table(self):
        report = cc.full_report(cc.spin_event_model(Direction(0.0), Direction(math.pi / 3)))
        assert report.relevance_by_orientation["as_given"] == (True, False)
        assert report.relevance_by_orientation["y_flipped"] == (True, True)
        assert set(report.relevance_by_orientation) == {
            "as_given", "x_flipped", "y_flipped", "both_flipped",
        }

    @pytest.mark.parametrize("tol", ["x", True, -1.0, math.nan])
    def test_tolerance_must_be_a_nonnegative_number(self, tol):
        with pytest.raises(ValidationError, match="tolerance"):
            cc.full_report(independent_model(), tol)

    def test_unknown_condition_name_rejected(self):
        report = cc.full_report(independent_model())
        with pytest.raises(ValidationError):
            find(report.conditions, "name", "relevance_z")

    def test_json_serializable(self):
        import json

        report = cc.full_report(cc.ball_event_model(bp.StageConfig(stage=2, trials=1)))
        payload = json.loads(json.dumps(asdict(report)))
        assert payload["certified"] is True
        assert len(payload["conditions"]) == 6


class TestEmpiricalModel:
    def test_statistical_tolerance_applied(self):
        stage_report = bp.run_stage(bp.StageConfig(stage=1, trials=100_000, seed=41))
        model = cc.empirical_ball_event_model(stage_report)
        assert model.sample_size == stage_report.registered_trials
        assert model.default_tolerance() == pytest.approx(
            4.0 / math.sqrt(stage_report.registered_trials)
        )
        report = cc.full_report(model)
        assert report.certified

    def test_requires_empirical_report(self):
        analytic = bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1))
        with pytest.raises(ValidationError):
            cc.empirical_ball_event_model(analytic)

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_algorithm_that_registered_nothing_is_an_empty_report(self, stage):
        report = bp.run_stage(bp.StageConfig(stage=stage, trials=1))
        (empty,) = [alg.algorithm for alg in report.algorithms if not alg.registered]
        with pytest.raises(EmptyReportError,
                           match=f"stage {stage}: algorithm {empty} registered no joint"):
            cc.empirical_ball_event_model(report)
