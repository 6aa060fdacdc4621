"""Singlet-pair statistics from axis-anchored hidden variables.

A source emits two spin-1/2 particles with total spin zero.  A hidden
variable fixes a reference axis in the y-z plane together with the
predetermined outcome of particle 1 along that axis; conservation of
spin angular momentum predetermines particle 2 to the opposite value.
Along any other axis only the *mean* outcome is fixed, obtained by
projecting the particle's unit spin vector onto the measurement axis.
Outcome probabilities follow linearly from that mean, joint outcome
probabilities factorize given the hidden variable, and averaging over
the two equally likely hidden-variable signs yields the observable
singlet correlation -cos(phi) for axes separated by the angle phi.

Conditional statistics are meaningful only relative to one
hidden-variable set, anchored to a single observer's axis (the "Alice"
or "Bob" description).  There the anchor is an explicit argument, and
:func:`subquantum_correlation` rejects a hidden variable anchored to
neither measurement axis, so quantities that would mix hidden-variable
sets from different contexts cannot be formed here.  The observable
correlation takes no anchor, as both descriptions give the same float:
its law, ``_correlation``, anchors the hidden variable on the first axis,
whose own cosine is exactly 1.0, and reads only the cosine to the second.

Every statistic is a function of cosines between axes, and that
arithmetic is written once (``_correlation`` and the helpers above it).
The public functions compute each cosine with :func:`axis_cosine` and
pass floats; :func:`quantum_correlation` is the law's one scalar entry.
:func:`correlation_sweep`, behind ``spin-correlation --sweep``, passes
one numpy array per block of points and is the only code here that
imports numpy.  Each step is elementwise in the same order for both, so
every point equals the float the scalar call gives, bit for bit.

Everything in this module is a pure function of its arguments and is
safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (ContextMismatchError, one_of, require, require_count, require_real,
                     require_type)

TWO_PI = 2.0 * math.pi

#: Spin outcomes are plain ints restricted to {+1, -1} (units of hbar/2).
SpinValue = int
SPINS = (1, -1)
require_spin = one_of(SPINS)
require_particle = one_of((1, 2))


def glyph(*signs: int) -> str:
    """The signs as text: ``glyph(1, -1)`` is ``"+-"``."""
    return "".join("+" if s > 0 else "-" for s in signs)


#: Most points a sweep may have: a report holds every row's text (at the
#: cap, a fresh ``spin-correlation --sweep`` process peaks at about 35 MiB
#: with either report format).
MAX_SWEEP_POINTS = 200_001
SWEEP_BLOCK = 1_024  #: most points :func:`correlation_sweep` computes at a time


@dataclass(frozen=True, slots=True)
class Direction:
    """A measurement axis in the y-z plane.

    Parameterized by a single angle ``theta`` (radians) against the z
    axis; the unit vector is (0, sin theta, cos theta).  The stored
    angle is canonicalized into [0, 2*pi), so two directions compare
    equal exactly when they describe the same axis orientation.
    """

    theta: float

    def __post_init__(self) -> None:
        t = math.fmod(require_real(self.theta, "theta"), TWO_PI)
        if t < 0.0:
            t += TWO_PI
        if t >= TWO_PI:
            # fmod of a tiny negative can round the sum up to exactly 2*pi.
            t -= TWO_PI
        object.__setattr__(self, "theta", t)


class Description(enum.Enum):
    """Which observer's measurement axis anchors the hidden-variable set."""

    ALICE = "alice"
    BOB = "bob"


@dataclass(frozen=True, slots=True)
class HiddenVariable:
    """An axis plus the predetermined outcome of particle 1 along it.

    The second particle's outcome along the same axis is always the
    negation of the first (the two predetermined values sum to zero),
    so only the first particle's sign is stored.
    """

    axis: Direction
    first_particle: SpinValue

    def __post_init__(self) -> None:
        require_type(self.axis, "axis", Direction)
        require_spin(self.first_particle, "first_particle")

    def predetermined(self, particle: int) -> SpinValue:
        """The outcome fixed for ``particle`` along this hidden variable's axis."""
        return self.first_particle * (-1) ** (require_particle(particle, "particle") - 1)


def angle_between(n: Direction, m: Direction) -> float:
    """Planar angle between two axes, in [0, pi].

    Equal to arccos of the dot product of the two unit vectors, and
    symmetric in its arguments.
    """
    return math.acos(math.cos(require_type(n, "n", Direction).theta
                              - require_type(m, "m", Direction).theta))


def axis_cosine(n: Direction, m: Direction) -> float:
    """cos of :func:`angle_between`: the cosine every statistic below reads."""
    return math.cos(angle_between(n, m))


# The law, written once over ``c``, the cosine between the hidden variable's
# axis and a measurement axis: a float, or a float64 array of many axes.  Each
# step is elementwise, so an array element equals the float the scalar gives.


def _mean(sign: int, c):
    return sign * c


def _outcome_prob(sign: int, c, outcome: int):
    return 0.5 * (1.0 + outcome * _mean(sign, c))


def _pair(first: int, c1, c2):
    total = 0.0
    for k in (1, -1):
        for l in (1, -1):
            total += k * l * (_outcome_prob(first, c1, k) * _outcome_prob(-first, c2, l))
    return total


def _marginal(sign: int, c):
    return 0.5 * _mean(sign, c) + 0.5 * _mean(-sign, c)


def _quantum_pair(c1, c2):
    return 0.5 * _pair(1, c1, c2) + 0.5 * _pair(-1, c1, c2)


def _correlation(c):
    return _quantum_pair(1.0, c) - _marginal(1, 1.0) * _marginal(-1, c)


def correlation_sweep(start: float, step: float, count: int) -> Iterator[list[float]]:
    """``[angle0, corr0, angle1, corr1, ...]`` for the angles ``start + i * step``, i < count.

    Each ``corr`` is ``quantum_correlation(Direction(0.0), Direction(angle))``
    bit for bit.  The arguments are checked at the call; then each block of
    at most :data:`SWEEP_BLOCK` points comes as one list.  A block computes
    and canonicalises its angles as :class:`Direction` does it, as one array
    (``np.fmod`` is exact, like ``math.fmod``), and runs the law on one array
    of cosines.  The cosines stay ``math.cos`` and ``math.acos`` per angle,
    because numpy's ``cos`` differs from ``math.cos`` in the last bit at some
    angles.  The last angle must be finite, and then so is every other.
    """
    start, step = require_real(start, "start"), require_real(step, "step")
    require(require_count.valid(count) and count <= MAX_SWEEP_POINTS, "count",
            f"a positive integer of at most {MAX_SWEEP_POINTS:,}", count)
    require_real(start + (count - 1) * step, "start + (count - 1) * step")
    import numpy as np  # the sweep's arrays; numpy stays unloaded until a sweep runs

    def blocks() -> Iterator[list[float]]:
        for lo in range(0, count, SWEEP_BLOCK):
            angles = start + np.arange(lo, min(lo + SWEEP_BLOCK, count)) * step
            t = np.fmod(angles, TWO_PI)
            t[t < 0.0] += TWO_PI
            t[t >= TWO_PI] -= TWO_PI
            cosines = list(map(math.cos, map(math.acos, map(math.cos, (0.0 - t).tolist()))))
            yield np.column_stack((angles, _correlation(np.array(cosines)))).ravel().tolist()

    return blocks()


def mean_value(lam: HiddenVariable, particle: int, axis: Direction) -> float:
    """Mean outcome of measuring ``particle`` along ``axis``, given the hidden variable.

    This is the projection of the particle's spin vector onto the
    measurement axis: the predetermined sign times cos(phi), with phi
    the angle between the hidden variable's axis and ``axis``.  When
    the two axes coincide it degenerates to the predetermined outcome
    itself (exactly +1 or -1).
    """
    lam = require_type(lam, "lam", HiddenVariable)
    return _mean(lam.predetermined(particle), axis_cosine(lam.axis, axis))


def conditional_outcome_prob(
    lam: HiddenVariable, particle: int, axis: Direction, outcome: SpinValue
) -> float:
    """Probability that measuring ``particle`` along ``axis`` yields ``outcome``.

    For a two-valued observable with mean m this is (1 + outcome*m)/2.
    The two outcome probabilities sum to 1 exactly, and measuring along
    the hidden variable's own axis gives exactly 1 or 0.
    """
    require_spin(outcome, "outcome")
    lam = require_type(lam, "lam", HiddenVariable)
    return _outcome_prob(lam.predetermined(particle), axis_cosine(lam.axis, axis), outcome)


def joint_outcome_prob(
    lam: HiddenVariable,
    axis1: Direction,
    axis2: Direction,
    outcome1: SpinValue,
    outcome2: SpinValue,
) -> float:
    """Joint probability of the two outcomes, conditional on the hidden variable.

    Factorizes into the product of the single-particle conditionals:
    given the hidden variable, the two outcomes are independent.
    """
    return conditional_outcome_prob(lam, 1, axis1, outcome1) * conditional_outcome_prob(
        lam, 2, axis2, outcome2
    )


def pair_expectation(lam: HiddenVariable, axis1: Direction, axis2: Direction) -> float:
    """Expected product of the two outcomes, conditional on the hidden variable.

    Sums k*l over the four joint outcome probabilities.  When ``axis1``
    is the hidden variable's own axis this equals -cos(phi12) for
    either sign of the hidden variable.
    """
    lam = require_type(lam, "lam", HiddenVariable)
    return _pair(lam.first_particle, axis_cosine(lam.axis, axis1), axis_cosine(lam.axis, axis2))


def subquantum_correlation(lam: HiddenVariable, axis1: Direction, axis2: Direction) -> float:
    """Covariance of the two outcomes conditional on one hidden variable.

    Defined only in a matching context: the hidden variable must be
    anchored to one of the two measurement axes (first axis for the
    Alice description, second for the Bob description); anything else
    raises :class:`ContextMismatchError`.  Because the joint
    distribution factorizes given the hidden variable, the value is
    identically zero: the particles carry no correlation at this level.
    """
    if require_type(lam, "lam", HiddenVariable).axis not in (axis1, axis2):
        raise ContextMismatchError(
            "hidden variable is anchored to neither measurement axis; conditional "
            "correlations are defined only within a matching measurement context"
        )
    return pair_expectation(lam, axis1, axis2) - mean_value(lam, 1, axis1) * mean_value(
        lam, 2, axis2
    )


def quantum_correlation(axis1: Direction, axis2: Direction) -> float:
    """Observable correlation (covariance) of the two outcomes: -cos(phi12).

    The hidden variable is anchored on ``axis1``; anchoring it on ``axis2``
    gives the same float.  The anchor's own cosine is exactly 1, so its
    outcomes are certain and either anchor sums the same two nonzero terms
    (``axis_cosine`` is symmetric); each marginal is exactly 0.
    """
    require_type(axis1, "axis1", Direction)
    require_type(axis2, "axis2", Direction)
    return _correlation(axis_cosine(axis1, axis2))
