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
it is evaluated under all four orientations instead of privileging one.

:func:`full_report` is the one evaluator: a single pass over the two
conditional tables gives every condition, each orientation's relevance
coming from the tables' row and column sums.  :func:`ball_event_model`
is the one ball-protocol builder, from an analytic or a simulated stage
report alike; :func:`spin_event_model` builds the spin model.

Equality checks use an absolute tolerance: 1e-9 for analytically
constructed models, 4/sqrt(N) for models estimated from N trials.
Comparisons that condition on a (near) zero-probability event are
reported as vacuous passes, never as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ballprotocol, spinmodel
from .errors import (ConditioningUndefinedError, EmptyReportError, require_fields,
                     require_nonnegative, require_probability, require_table, require_trials,
                     require_type)

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

    def _mix(self, given) -> float:
        """P(event) from ``given(table)``, the event's probability under one cause value."""
        p_z = self.p_z
        return p_z * given(self.joint_given_z) + (1.0 - p_z) * given(self.joint_given_not_z)

    def p_x(self) -> float:
        return self._mix(lambda t: t[0][0] + t[0][1])

    def p_y(self) -> float:
        return self._mix(lambda t: t[0][0] + t[1][0])

    def p_xy(self) -> float:
        return self._mix(lambda t: t[0][0])

    def covariance(self) -> float:
        """Unconditional covariance of the occurrence indicators."""
        return self.p_xy() - self.p_x() * self.p_y()


def binary_event_model_from_json_dict(data: dict) -> BinaryEventModel:
    required = {"p_z", "joint_given_z", "joint_given_not_z"}
    return BinaryEventModel(**require_fields(data, "model", required, {"sample_size"}))


@dataclass(frozen=True, slots=True)
class ConditionResult:
    """Outcome of one condition check.

    ``margin`` is lhs - rhs for inequality conditions and |lhs - rhs|
    for equality conditions; ``vacuous`` marks an equality whose
    conditioning event has (near) zero probability, which passes by
    convention.
    """

    name: str
    holds: bool
    lhs: float | None
    rhs: float | None
    margin: float | None
    vacuous: bool = False


def _sums(t: Table) -> tuple[tuple[float, float], tuple[float, float]]:
    """P(x takes state i) and P(y takes state j) under one table: its row and column sums."""
    return (t[0][0] + t[0][1], t[1][0] + t[1][1]), (t[0][0] + t[1][0], t[0][1] + t[1][1])


def _given(t: Table, p_branch: float, label: str,
           eps: float) -> tuple[ConditionResult, ConditionResult]:
    """Screening off and factorization under the cause value of table ``t``.

    Screening off compares P(y | x) with P(y | not-x); a side whose
    conditioning event has (near) zero probability, ``p_branch`` times
    its row sum, is vacuous and passes with a flag.  Factorization
    compares the joint P(x & y) with the product P(x) P(y).
    """
    (p_x, p_not_x), (p_y, _) = _sums(t)
    lhs = t[0][0] / p_x if p_branch * p_x > eps else None
    rhs = t[1][0] / p_not_x if p_branch * p_not_x > eps else None
    if lhs is None or rhs is None:
        screening = ConditionResult(f"screening_{label}", True, lhs, rhs, None, vacuous=True)
    else:
        margin = abs(lhs - rhs)
        screening = ConditionResult(f"screening_{label}", margin <= eps, lhs, rhs, margin)
    margin = abs(t[0][0] - p_x * p_y)
    return screening, ConditionResult(f"factorization_{label}", margin <= eps, t[0][0], p_x * p_y,
                                      margin)


#: Which state of x and of y counts as "occurs": row i and column j of each table.
_ORIENTATIONS = {"as_given": (0, 0), "x_flipped": (1, 0), "y_flipped": (0, 1),
                 "both_flipped": (1, 1)}


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

    Relevance asks whether z strictly raises the probability of x, and
    of y, by more than the tolerance.  Conditioning on both z and not-z
    must be meaningful, so a degenerate cause (p_z within the tolerance
    of 0 or 1) is an error rather than a result.  Relevance results feed
    the orientation table only; certification depends on screening off,
    factorization and a nonzero unconditional correlation at the working
    tolerance.
    """
    require_type(model, "model", BinaryEventModel)
    eps = model.default_tolerance() if tol is None else require_nonnegative(tol, "tolerance")
    if model.p_z <= eps or model.p_z >= 1.0 - eps:
        raise ConditioningUndefinedError(
            f"cause relevance needs 0 < p_z < 1, got p_z = {model.p_z}"
        )
    rows_z, cols_z = _sums(model.joint_given_z)
    rows_not_z, cols_not_z = _sums(model.joint_given_not_z)
    relevance = tuple(
        ConditionResult(name, lhs - rhs > eps, lhs, rhs, lhs - rhs) for name, lhs, rhs in (
            ("relevance_x", rows_z[0], rows_not_z[0]), ("relevance_y", cols_z[0], cols_not_z[0]))
    )
    orientations = {label: (rows_z[i] - rows_not_z[i] > eps, cols_z[j] - cols_not_z[j] > eps)
                    for label, (i, j) in _ORIENTATIONS.items()}
    (screening_z, factorization_z), (screening_not_z, factorization_not_z) = (
        _given(model.joint_given_z, model.p_z, "given_z", eps),
        _given(model.joint_given_not_z, 1.0 - model.p_z, "given_not_z", eps),
    )
    checked = (screening_z, screening_not_z, factorization_z, factorization_not_z)
    covariance = model.covariance()
    return CommonCauseReport(
        conditions=(*relevance, *checked),
        unconditional_joint=model.p_xy(),
        product_of_marginals=model.p_x() * model.p_y(),
        covariance=covariance,
        certified=all(c.holds for c in checked) and abs(covariance) > eps,
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
    spinmodel.require_spin(x_outcome, "x_outcome")
    spinmodel.require_spin(y_outcome, "y_outcome")

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
    report: ballprotocol.AggregateReport, x_sign: int = 1, y_sign: int = 1
) -> BinaryEventModel:
    """Binary event model of one ball-protocol stage, from its analytic or simulated report.

    The cause z is the stage's first executive algorithm (not-z its
    mirror).  "x occurs" means Alice registers ``x_sign`` on her filter
    color; "y occurs" means Bob registers ``y_sign`` on his.  The tables
    are the per-algorithm registered-outcome distributions.  A simulated
    report's registered-trial count becomes ``sample_size``, so checks
    use the statistical tolerance 4/sqrt(N); an analytic report has none.
    A simulated algorithm that registered nothing leaves its conditional
    table undefined: :class:`EmptyReportError`.
    """
    require_type(report, "report", ballprotocol.AggregateReport)
    for alg in report.algorithms:
        if alg.registered == 0:  # None in an analytic report
            raise EmptyReportError(
                f"stage {report.stage}: algorithm {alg.algorithm} registered no joint "
                f"trials in {report.trials} emissions"
            )
    spinmodel.require_spin(x_sign, "x_sign")
    spinmodel.require_spin(y_sign, "y_sign")
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
        sample_size=report.registered_trials,
    )
