"""Checker for the six common-cause conditions over binary event models.

A binary event model fixes a two-valued cause variable z (probability
``p_z``) and the joint distribution of two binary effects x and y
conditional on z and on not-z.  The six conditions of the textbook
common-cause pattern are:

* relevance: z raises the probability of x, and of y;
* screening off: x and y are conditionally independent given z, and
  given not-z (holding the cause fixed makes the correlation vanish);
* factorization: the conditional joints are products of conditional
  marginals, under z and under not-z.

A pair of effects that is unconditionally correlated, screened off and
factorized is certified as explained by the common cause.  Relevance
is direction-sensitive: for anticorrelated effects it holds under one
orientation of "x occurs"/"y occurs" and reverses under the other, so
:func:`full_report` evaluates it under all four orientations instead
of privileging one.

Equality checks use an absolute tolerance: 1e-9 for analytically
constructed models, 4/sqrt(N) for models estimated from N trials.
Comparisons that condition on a (near) zero-probability event are
reported as vacuous passes, never as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import ballprotocol, spinmodel
from .errors import (ConditioningUndefinedError, EmptyReportError, require, require_choice,
                     require_fields, require_nonnegative, require_probability, require_table,
                     require_trials, require_type)

ANALYTIC_TOLERANCE = 1e-9

Table = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class BinaryEventModel:
    """Joint behavior of two binary effects conditional on a binary cause.

    ``joint_given_z[i][j]`` is the probability (given z) that x takes
    state i and y takes state j, with index 0 meaning "occurs" and 1
    meaning "absent"; likewise ``joint_given_not_z`` given not-z.
    ``sample_size`` marks a model estimated from that many trials, which
    widens the default check tolerance to 4/sqrt(N).
    """

    p_z: float
    joint_given_z: Table
    joint_given_not_z: Table
    sample_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_z", require_probability(self.p_z, "p_z"))
        for t in ("joint_given_z", "joint_given_not_z"):
            object.__setattr__(self, t, require_table(getattr(self, t), t, ANALYTIC_TOLERANCE))
        if self.sample_size is not None:
            require_trials(self.sample_size, "sample_size")

    def default_tolerance(self) -> float:
        if self.sample_size is None:
            return ANALYTIC_TOLERANCE
        return 4.0 / math.sqrt(self.sample_size)

    def _table(self, given_z: bool) -> Table:
        return self.joint_given_z if given_z else self.joint_given_not_z

    def p_x_given(self, given_z: bool) -> float:
        t = self._table(given_z)
        return t[0][0] + t[0][1]

    def p_y_given(self, given_z: bool) -> float:
        t = self._table(given_z)
        return t[0][0] + t[1][0]

    def p_xy_given(self, given_z: bool) -> float:
        return self._table(given_z)[0][0]

    def p_x(self) -> float:
        return self.p_z * self.p_x_given(True) + (1.0 - self.p_z) * self.p_x_given(False)

    def p_y(self) -> float:
        return self.p_z * self.p_y_given(True) + (1.0 - self.p_z) * self.p_y_given(False)

    def p_xy(self) -> float:
        return self.p_z * self.p_xy_given(True) + (1.0 - self.p_z) * self.p_xy_given(False)

    def covariance(self) -> float:
        """Unconditional covariance of the occurrence indicators."""
        return self.p_xy() - self.p_x() * self.p_y()

    def with_flipped_x(self) -> "BinaryEventModel":
        """Swap which x state counts as "occurs"."""
        return replace(
            self,
            joint_given_z=(self.joint_given_z[1], self.joint_given_z[0]),
            joint_given_not_z=(self.joint_given_not_z[1], self.joint_given_not_z[0]),
        )

    def with_flipped_y(self) -> "BinaryEventModel":
        """Swap which y state counts as "occurs"."""

        def flip(t: Table) -> Table:
            return ((t[0][1], t[0][0]), (t[1][1], t[1][0]))

        return replace(
            self,
            joint_given_z=flip(self.joint_given_z),
            joint_given_not_z=flip(self.joint_given_not_z),
        )


def binary_event_model_from_json_dict(data: dict) -> BinaryEventModel:
    required = {"p_z", "joint_given_z", "joint_given_not_z"}
    return BinaryEventModel(**require_fields(data, "model", required, {"sample_size"}))


@dataclass(frozen=True, slots=True)
class ConditionResult:
    """Outcome of one condition check.

    ``margin`` is lhs - rhs for inequality conditions and |lhs - rhs|
    for equality conditions; ``vacuous`` marks an equality whose
    conditioning event has (near) zero probability, which passes by
    convention.  Truthiness follows ``holds``.
    """

    name: str
    holds: bool
    lhs: float | None
    rhs: float | None
    margin: float | None
    vacuous: bool = False

    def __bool__(self) -> bool:
        return self.holds


def _resolve_tol(model: BinaryEventModel, tol: float | None) -> float:
    require_type(model, "model", BinaryEventModel)
    return model.default_tolerance() if tol is None else require_nonnegative(tol, "tolerance")


def check_cause_relevance(
    model: BinaryEventModel, tol: float | None = None
) -> tuple[ConditionResult, ConditionResult]:
    """Does z raise the probability of x, and of y?  Strict, with tolerance.

    Conditioning on both z and not-z must be meaningful, so a
    degenerate cause (p_z of 0 or 1) is an error rather than a result.
    """
    eps = _resolve_tol(model, tol)
    if model.p_z <= eps or model.p_z >= 1.0 - eps:
        raise ConditioningUndefinedError(
            f"cause relevance needs 0 < p_z < 1, got p_z = {model.p_z}"
        )
    results = []
    for name, lhs, rhs in (
        ("relevance_x", model.p_x_given(True), model.p_x_given(False)),
        ("relevance_y", model.p_y_given(True), model.p_y_given(False)),
    ):
        results.append(
            ConditionResult(name=name, holds=lhs - rhs > eps, lhs=lhs, rhs=rhs, margin=lhs - rhs)
        )
    return results[0], results[1]


def _screening_branch(model: BinaryEventModel, given_z: bool, eps: float) -> ConditionResult:
    name = "screening_given_z" if given_z else "screening_given_not_z"
    p_branch = model.p_z if given_z else 1.0 - model.p_z
    table = model._table(given_z)
    p_x = table[0][0] + table[0][1]
    p_not_x = table[1][0] + table[1][1]
    lhs = table[0][0] / p_x if p_branch * p_x > eps else None
    rhs = table[1][0] / p_not_x if p_branch * p_not_x > eps else None
    if lhs is None or rhs is None:
        return ConditionResult(name=name, holds=True, lhs=lhs, rhs=rhs, margin=None, vacuous=True)
    margin = abs(lhs - rhs)
    return ConditionResult(name=name, holds=margin <= eps, lhs=lhs, rhs=rhs, margin=margin)


def check_screening_off(
    model: BinaryEventModel, tol: float | None = None
) -> tuple[ConditionResult, ConditionResult]:
    """Is y independent of x once z is held fixed (positively and negatively)?

    Each branch compares P(y | z & x) with P(y | z & not-x); a branch
    whose conditioning event has (near) zero probability is vacuous and
    passes with a flag.
    """
    eps = _resolve_tol(model, tol)
    return _screening_branch(model, True, eps), _screening_branch(model, False, eps)


def check_factorization(
    model: BinaryEventModel, tol: float | None = None
) -> tuple[ConditionResult, ConditionResult]:
    """Does the conditional joint equal the product of conditional marginals?"""
    eps = _resolve_tol(model, tol)
    results = []
    for given_z, name in ((True, "factorization_given_z"), (False, "factorization_given_not_z")):
        lhs = model.p_xy_given(given_z)
        rhs = model.p_x_given(given_z) * model.p_y_given(given_z)
        margin = abs(lhs - rhs)
        results.append(ConditionResult(name=name, holds=margin <= eps, lhs=lhs, rhs=rhs,
                                       margin=margin))
    return results[0], results[1]


_ORIENTATIONS = ("as_given", "x_flipped", "y_flipped", "both_flipped")


@dataclass(frozen=True, slots=True)
class CommonCauseReport:
    """All six conditions plus the unconditional correlation and the verdict.

    ``certified`` means: screening off and factorization hold under
    both cause values, and there is a nonzero unconditional correlation
    to explain.  ``relevance_by_orientation`` carries the two relevance
    results for every choice of which outcome counts as "occurs".
    """

    conditions: tuple[ConditionResult, ...]
    unconditional_joint: float
    product_of_marginals: float
    covariance: float
    certified: bool
    tolerance: float
    relevance_by_orientation: dict[str, tuple[bool, bool]]


def full_report(model: BinaryEventModel, tol: float | None = None) -> CommonCauseReport:
    """Evaluate all six conditions and certify or decline the model.

    Relevance results feed the orientation table only; certification
    depends on screening off, factorization and a nonzero unconditional
    correlation at the working tolerance.
    """
    eps = _resolve_tol(model, tol)
    relevance = check_cause_relevance(model, eps)
    screening = check_screening_off(model, eps)
    factorization = check_factorization(model, eps)

    orientations: dict[str, tuple[bool, bool]] = {}
    variants = {
        "as_given": model,
        "x_flipped": model.with_flipped_x(),
        "y_flipped": model.with_flipped_y(),
        "both_flipped": model.with_flipped_x().with_flipped_y(),
    }
    for label in _ORIENTATIONS:
        rx, ry = check_cause_relevance(variants[label], eps)
        orientations[label] = (rx.holds, ry.holds)

    covariance = model.covariance()
    certified = all(c.holds for c in (*screening, *factorization)) and abs(covariance) > eps
    return CommonCauseReport(
        conditions=(*relevance, *screening, *factorization),
        unconditional_joint=model.p_xy(),
        product_of_marginals=model.p_x() * model.p_y(),
        covariance=covariance,
        certified=certified,
        tolerance=eps,
        relevance_by_orientation=orientations,
    )


def spin_event_model(
    axis1: spinmodel.Direction,
    axis2: spinmodel.Direction,
    x_outcome: int = 1,
    y_outcome: int = 1,
) -> BinaryEventModel:
    """Binary event model of the two-particle spin setup.

    The cause z is the hidden variable on the first observer's axis
    with particle 1 predetermined to +1 (not-z is the opposite sign;
    both are equally likely).  "x occurs" means particle 1's outcome
    along ``axis1`` equals ``x_outcome``; "y occurs" means particle 2's
    outcome along ``axis2`` equals ``y_outcome``.
    """
    require_type(axis1, "axis1", spinmodel.Direction)
    require_type(axis2, "axis2", spinmodel.Direction)
    require_choice(x_outcome, "x_outcome", spinmodel.SPINS)
    require_choice(y_outcome, "y_outcome", spinmodel.SPINS)

    def table(sign: int) -> Table:
        lam = spinmodel.HiddenVariable(axis1, sign)
        return tuple(
            tuple(
                spinmodel.joint_outcome_prob(lam, axis1, axis2, x, y)
                for y in (y_outcome, -y_outcome)
            )
            for x in (x_outcome, -x_outcome)
        )

    return BinaryEventModel(p_z=0.5, joint_given_z=table(1), joint_given_not_z=table(-1))


def ball_event_model(
    config: ballprotocol.StageConfig, x_sign: int = 1, y_sign: int = 1
) -> BinaryEventModel:
    """Binary event model of one ball-protocol stage (analytic).

    The cause z is the stage's first executive algorithm (not-z its
    mirror).  "x occurs" means Alice registers ``x_sign`` on her filter
    color; "y occurs" means Bob registers ``y_sign`` on his.  Built
    from the exact per-algorithm registered-outcome distribution.
    """
    report = ballprotocol.analytic_stage_report(config)
    return _event_model_from_report(report, x_sign, y_sign, sample_size=None)


def empirical_ball_event_model(
    report: ballprotocol.AggregateReport, x_sign: int = 1, y_sign: int = 1
) -> BinaryEventModel:
    """Binary event model estimated from a simulated stage report.

    Carries the registered-trial count as ``sample_size`` so checks use
    the statistical tolerance 4/sqrt(N).  An algorithm that registered
    nothing leaves its conditional table undefined: :class:`EmptyReportError`.
    """
    require(isinstance(report, ballprotocol.AggregateReport) and report.mode == "empirical",
            "report", "an empirical stage report", report)
    for alg in report.algorithms:
        if not alg.registered:
            raise EmptyReportError(
                f"stage {report.stage}: algorithm {alg.algorithm} registered no joint "
                f"trials in {report.trials} emissions"
            )
    return _event_model_from_report(report, x_sign, y_sign, sample_size=report.registered_trials)


def _event_model_from_report(
    report: ballprotocol.AggregateReport, x_sign: int, y_sign: int, sample_size: int | None
) -> BinaryEventModel:
    require_choice(x_sign, "x_sign", spinmodel.SPINS)
    require_choice(y_sign, "y_sign", spinmodel.SPINS)
    first, second = report.algorithms

    def table(stats: ballprotocol.AlgorithmStats) -> Table:
        return tuple(
            tuple(stats.joint_freq[(a, b)] for b in (y_sign, -y_sign))
            for a in (x_sign, -x_sign)
        )

    return BinaryEventModel(
        p_z=first.weight,
        joint_given_z=table(first),
        joint_given_not_z=table(second),
        sample_size=sample_size,
    )
