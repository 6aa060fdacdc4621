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


def ball_model(stage=1, **config):
    """The analytic ball event model of a stage."""
    return cc.ball_event_model(bp.analytic_stage_report(bp.StageConfig(stage, trials=1, **config)))


def conditions(model, *names):
    """The named conditions of ``model``'s full report."""
    report = cc.full_report(model)
    return tuple(find(report.conditions, "name", name) for name in names)


RELEVANCE = ("relevance_x", "relevance_y")
SCREENING = ("screening_given_z", "screening_given_not_z")
FACTORIZATION = ("factorization_given_z", "factorization_given_not_z")


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
        report = cc.full_report(model)
        cells = mixed_joint_cells(model)
        p_x, p_y = cells[0][0] + cells[0][1], cells[0][0] + cells[1][0]
        assert report.unconditional_joint == pytest.approx(cells[0][0], abs=1e-9)
        assert report.product_of_marginals == pytest.approx(p_x * p_y, abs=1e-9)
        assert report.covariance == pytest.approx(cells[0][0] - p_x * p_y, abs=1e-9)
        assert sum(v for row in cells for v in row) == pytest.approx(1.0, abs=1e-9)

    @given(models(), st.sampled_from([None, 10_000]), st.sampled_from([None, 0.0, 0.01]))
    def test_unconditional_fields_are_the_mixed_conditional_sums(self, model, size, tol):
        """The report's unconditional numbers are, bit for bit, P(z) P(e | z) plus
        P(not-z) P(e | not-z) over the raw tables, whatever the sample size and tolerance."""
        model = cc.BinaryEventModel(model.p_z, model.joint_given_z, model.joint_given_not_z, size)
        z, not_z = model.joint_given_z, model.joint_given_not_z

        def total(event):
            return model.p_z * event(z) + (1.0 - model.p_z) * event(not_z)

        joint = total(lambda t: t[0][0])
        p_x, p_y = total(lambda t: t[0][0] + t[0][1]), total(lambda t: t[0][0] + t[1][0])
        report = cc.full_report(model, tol)
        assert report.unconditional_joint == joint
        assert report.product_of_marginals == p_x * p_y
        assert report.covariance == joint - p_x * p_y

    def test_statistical_tolerance(self):
        table = ((0.25, 0.25), (0.25, 0.25))
        model = cc.BinaryEventModel(0.5, table, table, sample_size=10_000)
        assert cc.full_report(model).tolerance == pytest.approx(0.04)
        assert cc.full_report(model, 0.01).tolerance == 0.01


class TestCauseRelevance:
    def test_independent_model(self):
        rx, ry = conditions(independent_model(), *RELEVANCE)
        assert (rx.holds, ry.holds) == (False, False)

    def test_degenerate_cause_rejected(self):
        table = ((0.25, 0.25), (0.25, 0.25))
        model = cc.BinaryEventModel(0.0, table, table)
        with pytest.raises(ConditioningUndefinedError, match="got p_z = 0.0 with tolerance 1e-09"):
            cc.full_report(model)

    def test_spin_model_at_sixty_degrees(self):
        # With both events oriented positive, the cause makes x certain but
        # makes y *less* likely below a right angle, so only the first
        # relevance inequality holds in this orientation.
        model = cc.spin_event_model(Direction(0.0), Direction(math.pi / 3))
        rx, ry = conditions(model, *RELEVANCE)
        assert rx.holds and rx.lhs == 1.0 and rx.rhs == 0.0
        assert not ry.holds
        assert ry.lhs == pytest.approx(0.25, abs=1e-12)
        assert ry.rhs == pytest.approx(0.75, abs=1e-12)

    def test_spin_model_beyond_right_angle(self):
        model = cc.spin_event_model(Direction(0.0), Direction(2 * math.pi / 3))
        rx, ry = conditions(model, *RELEVANCE)
        assert rx.holds and ry.holds

    def test_ball_model_orientation_dependence(self):
        rx, ry = conditions(ball_model(), *RELEVANCE)
        assert rx.holds and rx.lhs == 1.0 and rx.rhs == 0.0
        assert not ry.holds  # P(b+|first) = 0.15 < P(b+|mirror) = 0.85

    @given(models())
    def test_each_orientation_is_the_swapped_model_as_given(self, model):
        """Counting x's or y's other state as "occurs" swaps the rows or the columns."""

        def swapped(rows, columns):
            def table(t):
                return tuple(tuple(t[i ^ rows][j ^ columns] for j in (0, 1)) for i in (0, 1))

            return cc.BinaryEventModel(model.p_z, table(model.joint_given_z),
                                       table(model.joint_given_not_z))

        orientations = cc.full_report(model).relevance_by_orientation
        for label, rows, columns in (("x_flipped", 1, 0), ("y_flipped", 0, 1),
                                     ("both_flipped", 1, 1)):
            again = cc.full_report(swapped(rows, columns)).relevance_by_orientation
            assert again["as_given"] == orientations[label]


class TestScreeningOff:
    def test_ball_model_screens_off(self):
        s_z, s_not_z = conditions(ball_model(), *SCREENING)
        assert s_z.holds and s_not_z.holds
        # Given the first algorithm, Alice's event is certain, so holding it
        # fixed leaves Bob's frequency at its conditional value.
        assert s_z.lhs == pytest.approx(0.15, abs=1e-12)
        assert s_z.vacuous  # the not-x branch has probability zero

    def test_spin_model_vacuous_branch_passes(self):
        model = cc.spin_event_model(Direction(0.0), Direction(1.0))
        s_z, s_not_z = conditions(model, *SCREENING)
        assert s_z.holds and s_z.vacuous
        assert s_not_z.holds and s_not_z.vacuous

    def test_constructed_counterexample_fails(self):
        model = cc.BinaryEventModel(
            0.5,
            ((0.45, 0.05), (0.05, 0.45)),  # P(y|z&x)=0.9 vs P(y|z&~x)=0.1
            ((0.25, 0.25), (0.25, 0.25)),
        )
        s_z, s_not_z = conditions(model, *SCREENING)
        assert not s_z.holds
        assert s_z.lhs == pytest.approx(0.9) and s_z.rhs == pytest.approx(0.1)
        assert s_not_z.holds


class TestFactorization:
    def test_spin_model_factorizes_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            model = cc.spin_event_model(Direction(t1), Direction(t2))
            f_z, f_not_z = conditions(model, *FACTORIZATION)
            assert f_z.holds and f_z.margin <= 1e-9
            assert f_not_z.holds and f_not_z.margin <= 1e-9

    def test_ball_model_at_default_and_random_parameters(self):
        rng = np.random.default_rng(7)
        biases = [0.15] + list(rng.uniform(0.001, 0.999, size=50))
        for p in biases:
            model = ball_model(p_stage1=float(p))
            assert all(c.holds for c in conditions(model, *FACTORIZATION))
            assert all(c.holds for c in conditions(model, *SCREENING))

    def test_unconditional_joint_shows_spurious_correlation(self):
        report = cc.full_report(ball_model())
        assert report.unconditional_joint == pytest.approx(0.075, abs=1e-12)
        assert report.product_of_marginals == pytest.approx(0.25, abs=1e-12)
        assert report.covariance == pytest.approx(-0.175, abs=1e-12)


class TestFullReport:
    def test_ball_model_certified(self):
        report = cc.full_report(ball_model())
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

    def test_a_table_at_the_normalization_edge_gets_a_report(self):
        """A table accepted by the model is reported on in every orientation."""
        edge = ((0.10800000099999997, 0.449), (0.428, 0.015))  # sums to 1 + 1e-9 - 1 ulp
        assert sum(edge[1] + edge[0]) - 1.0 > 1e-9  # the rows summed in the other order do not
        report = cc.full_report(cc.BinaryEventModel(0.5, edge, independent_model().joint_given_z))
        assert len(report.conditions) == 6 and len(report.relevance_by_orientation) == 4

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

        report = cc.full_report(ball_model(2))
        payload = json.loads(json.dumps(asdict(report)))
        assert payload["certified"] is True
        assert len(payload["conditions"]) == 6


class TestEmpiricalModel:
    def test_statistical_tolerance_applied(self):
        stage_report = bp.run_stage(bp.StageConfig(stage=1, trials=100_000, seed=41))
        model = cc.ball_event_model(stage_report)
        assert model.sample_size == stage_report.registered_trials
        report = cc.full_report(model)
        assert report.tolerance == pytest.approx(4.0 / math.sqrt(stage_report.registered_trials))
        assert report.certified

    def test_analytic_report_gives_exact_frequencies(self):
        analytic = bp.analytic_stage_report(bp.StageConfig(stage=1, trials=1))
        model = cc.ball_event_model(analytic, 1, -1)
        assert model.sample_size is None
        assert cc.full_report(model).tolerance == cc.ANALYTIC_TOLERANCE
        first, mirror = analytic.algorithms
        assert model.p_z == first.weight
        for table, stats in ((model.joint_given_z, first), (model.joint_given_not_z, mirror)):
            assert table == tuple(tuple(stats.joint_freq[(a, b)] for b in (-1, 1))
                                  for a in (1, -1))

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_algorithm_that_registered_nothing_is_an_empty_report(self, stage):
        report = bp.run_stage(bp.StageConfig(stage=stage, trials=1))
        (empty,) = [alg.algorithm for alg in report.algorithms if not alg.registered]
        with pytest.raises(EmptyReportError,
                           match=f"stage {stage}: algorithm {empty} registered no joint"):
            cc.ball_event_model(report)
