"""Reference paths, written the way the model describes them, that the
library's vectorised code must match.

The spin-vector picture: a particle's spin vector is its predetermined sign
times the hidden variable's axis, and its projection onto a measurement axis
is the mean outcome that ``spinmodel.mean_value`` computes from a cosine.

The per-trial actor paths play one trial one draw at a time from the
trial's own generator: the Monte Carlo source samples the hidden variable
and the observers read their outcomes; the ball source emits four signed
balls and each observer's detector scans the two balls addressed to them.

The helpers at the end reach into the library for tests: a stream's
sequential generator, a record looked up by name, and two averages of
the cosine core.
"""

import math
from dataclasses import dataclass

import numpy as np

from bellsim import ballprotocol as bp
from bellsim.errors import ValidationError
from bellsim.spinmodel import (
    Direction,
    HiddenVariable,
    _quantum_pair,
    axis_cosine,
    conditional_outcome_prob,
    mean_value,
)

ALICE, BOB = "A", "B"


@dataclass(frozen=True)
class TrialRecord:
    """One simulated run: the sampled hidden-variable sign and both outcomes."""

    lambda_sign: int
    outcome1: int
    outcome2: int


def unit_vector(axis: Direction) -> tuple[float, float, float]:
    """The axis as the unit vector (0, sin theta, cos theta) in the y-z plane."""
    return (0.0, math.sin(axis.theta), math.cos(axis.theta))


@dataclass(frozen=True)
class SpinVector:
    """A unit 3-vector carrying one particle's spin orientation."""

    components: tuple[float, float, float]

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(c * c for c in self.components))
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"spin vector must have unit norm, got |v| = {norm!r}")

    def project(self, axis: Direction) -> float:
        """Dot product with the axis unit vector: the mean outcome along ``axis``."""
        ax, ay, az = unit_vector(axis)
        x, y, z = self.components
        return x * ax + y * ay + z * az


def spin_vector(lam: HiddenVariable, particle: int) -> SpinVector:
    """The unit spin vector of one particle: its predetermined sign times the axis."""
    sign = lam.predetermined(particle)
    _, uy, uz = unit_vector(lam.axis)
    return SpinVector((0.0, sign * uy, sign * uz))


def second_particle(lam: HiddenVariable) -> int:
    """Particle 2's predetermined outcome along the hidden variable's axis."""
    return -lam.first_particle


def sample_hidden_variable(axis, rng) -> HiddenVariable:
    """Draw the hidden variable on ``axis``: both signs with probability 1/2."""
    return HiddenVariable(axis, 1 if rng.random() < 0.5 else -1)


def simulate_trial(config, rng) -> TrialRecord:
    """One Monte Carlo trial, consuming two draws from ``rng``.

    The hidden variable is sampled on the anchored observer's axis; that
    observer's outcome is read off with certainty, the other is drawn by
    comparing one uniform against its conditional probability.
    """
    if config.description == "alice":
        lam = sample_hidden_variable(config.axis1, rng)
        outcome1 = lam.first_particle
        outcome2 = 1 if rng.random() < conditional_outcome_prob(lam, 2, config.axis2, 1) else -1
    else:
        lam = sample_hidden_variable(config.axis2, rng)
        outcome2 = second_particle(lam)
        outcome1 = 1 if rng.random() < conditional_outcome_prob(lam, 1, config.axis1, 1) else -1
    return TrialRecord(lam.first_particle, outcome1, outcome2)


@dataclass(frozen=True)
class SignedBall:
    color: str
    sign: int
    addressee: str  # ALICE or BOB

    def label(self) -> str:
        return f"{self.color}_{self.addressee}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class Algorithm:
    """One executive algorithm: the fixed color's signs are forced, Alice's
    to ``fixed_alice_sign``; Bob's variable-color ball carries the same
    sign with probability ``correlated_prob``, else the opposite."""

    algorithm_id: str
    fixed_color: str
    variable_color: str
    fixed_alice_sign: int
    correlated_prob: float

    def quadruple(self, correlated: bool) -> tuple[SignedBall, ...]:
        """The four balls of one emission: (fixed_A, variable_A; variable_B, fixed_B)."""
        s = self.fixed_alice_sign
        v = s if correlated else -s
        return (SignedBall(self.fixed_color, s, ALICE), SignedBall(self.variable_color, -v, ALICE),
                SignedBall(self.variable_color, v, BOB), SignedBall(self.fixed_color, -s, BOB))

    def emission_table(self) -> dict[tuple[SignedBall, ...], float]:
        """The two possible quadruples with their probabilities."""
        return {self.quadruple(True): self.correlated_prob,
                self.quadruple(False): 1.0 - self.correlated_prob}


def stage_algorithms(stage: int, correlated_prob: float) -> tuple[Algorithm, Algorithm]:
    """The stage's complementary pair: the mirror flips every sign."""
    fixed, variable = bp.STAGE_COLORS[stage]
    return tuple(Algorithm(algorithm_id, fixed, variable, s, correlated_prob)
                 for algorithm_id, s in zip(bp.ALGORITHM_IDS[stage], (1, -1)))


def sam_emit(config, rng) -> tuple[str, tuple[SignedBall, ...]]:
    """Pick the algorithm by a fair coin, then emit its four balls: two draws."""
    first, second = stage_algorithms(config.stage, config.correlated_prob)
    algorithm = first if rng.random() < 0.5 else second
    return algorithm.algorithm_id, algorithm.quadruple(rng.random() < algorithm.correlated_prob)


@dataclass(frozen=True)
class DetectionRecord:
    """What one observer's device did with one trial's pair of balls."""

    registered: bool
    color: str | None
    sign: int | None
    passages: int


def observer_detect(balls, filter_color) -> DetectionRecord:
    """Scan one observer's two balls; record (color, sign) of the one matching the filter.

    The device counts both passing balls whatever their color.
    """
    if len(balls) != 2 or balls[0].addressee != balls[1].addressee:
        raise ValidationError("an observer receives exactly two balls, both addressed to them")
    for ball in balls:
        if ball.color == filter_color:
            return DetectionRecord(True, ball.color, ball.sign, passages=2)
    return DetectionRecord(False, None, None, passages=2)


def mixed_joint_cells(model):
    """Unconditional 2x2 joint table by mixing the two conditional tables.

    Marginalizing these cells must reproduce the common-cause report's
    unconditional joint and marginals, which mix the conditional row and
    column sums directly; the two computations take different paths
    through the law of total probability.
    """
    return tuple(tuple(model.p_z * model.joint_given_z[i][j]
                       + (1.0 - model.p_z) * model.joint_given_not_z[i][j] for j in range(2))
                 for i in range(2))


def philox_block(key: tuple[int, int], counter: int) -> list[int]:
    """Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11): the four words at ``counter``.

    The definition of every stream, without numpy: trial i of the stream
    (seed, stream_id) draws ``philox_block((seed, stream_id), i + 1)``, since
    numpy's Philox steps its 256-bit counter, low word first, before each block.
    """
    mask = (1 << 64) - 1
    c = [counter >> 64 * k & mask for k in range(4)]
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [p1 >> 64 ^ c[1] ^ k0, p1 & mask, p0 >> 64 ^ c[3] ^ k1, p0 & mask]
        k0, k1 = k0 + 0x9E3779B97F4A7C15 & mask, k1 + 0xBB67AE8584CAA73B & mask
    return c


def generator(stream, block: int = 0) -> np.random.Generator:
    """The stream's generator from counter block ``block``: trial ``block``'s draws, then on.

    Built here from the documented key, (seed, stream_id), and not from the
    engine's own generator, so a fault in either shows as a mismatch.
    """
    bit_generator = np.random.Philox(key=np.array([stream.seed, stream.stream_id], np.uint64))
    bit_generator.advance(block)
    return np.random.Generator(bit_generator)


def trial_words(stream, trials: int) -> np.ndarray:
    """Raw uint64 words of trials [0, trials), one row of four per trial."""
    return generator(stream).bit_generator.random_raw(trials * 4).reshape(trials, 4)


def find(records, field: str, value):
    """The record whose ``field`` is ``value``."""
    for r in records:
        if getattr(r, field) == value:
            return r
    raise ValidationError(f"no record with {field} {value!r}")


def marginal_expectation(source_axis: Direction, particle: int, measure_axis: Direction) -> float:
    """Single-particle mean averaged over both hidden-variable signs: 0 for all axes."""
    plus, minus = (mean_value(HiddenVariable(source_axis, sign), particle, measure_axis)
                   for sign in (1, -1))
    return 0.5 * plus + 0.5 * minus


def quantum_pair_expectation(axis1: Direction, axis2: Direction,
                             description: str = "alice") -> float:
    """Outcome-product expectation averaged over both signs: -cos of the axis angle.

    The hidden variable is anchored on the described observer's axis.
    """
    anchor = axis1 if description == "alice" else axis2
    return _quantum_pair(axis_cosine(anchor, axis1), axis_cosine(anchor, axis2))
