"""Analytic model: geometry, hidden variables, probabilities, correlations."""

import math

import numpy as np
import pytest
from actor_oracles import (
    SpinVector,
    marginal_expectation,
    quantum_pair_expectation,
    second_particle,
    spin_vector,
    unit_vector,
)
from hypothesis import given
from hypothesis import strategies as st

from bellsim.errors import ContextMismatchError, ValidationError
from bellsim.spinmodel import (
    SWEEP_BLOCK,
    Direction,
    HiddenVariable,
    _quantum_pair,
    angle_between,
    axis_cosine,
    conditional_outcome_prob,
    correlation_sweep,
    joint_outcome_prob,
    mean_value,
    pair_expectation,
    quantum_correlation,
    subquantum_correlation,
)

TOL = 1e-12

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
signs = st.sampled_from([1, -1])


class TestDirection:
    @given(angles)
    def test_canonical_range_and_unit_norm(self, theta):
        d = Direction(theta)
        assert 0.0 <= d.theta < 2.0 * math.pi
        x, y, z = unit_vector(d)
        assert x == 0.0
        assert abs(math.hypot(y, z) - 1.0) <= TOL

    def test_equality_mod_two_pi(self):
        assert Direction(0.0) == Direction(2.0 * math.pi)
        assert Direction(-math.pi / 2) == Direction(3.0 * math.pi / 2)

    def test_from_degrees(self):
        assert Direction(math.radians(180.0)) == Direction(math.pi)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "x", None, 10**400, True])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            Direction(bad)


class TestAngleBetween:
    def test_identical_directions(self):
        assert angle_between(Direction(0.0), Direction(0.0)) == 0.0

    def test_antiparallel(self):
        assert angle_between(Direction(0.0), Direction(math.pi)) == pytest.approx(
            math.pi, abs=TOL
        )

    def test_planar_angle(self):
        assert angle_between(Direction(math.pi / 3), Direction(0.0)) == pytest.approx(
            math.pi / 3, abs=TOL
        )

    @given(angles, angles)
    def test_symmetric_and_in_range(self, t1, t2):
        a, b = Direction(t1), Direction(t2)
        phi = angle_between(a, b)
        assert 0.0 <= phi <= math.pi
        assert phi == angle_between(b, a)

    @given(angles, angles)
    def test_matches_arccos_of_dot_product(self, t1, t2):
        # arccos is ill-conditioned at +/-1, so the angle itself is only
        # comparable to sqrt(eps) there; its cosine is comparable at 1e-12.
        a, b = Direction(t1), Direction(t2)
        dot = sum(p * q for p, q in zip(unit_vector(a), unit_vector(b)))
        dot = max(-1.0, min(1.0, dot))
        phi = angle_between(a, b)
        assert phi == pytest.approx(math.acos(dot), abs=1e-7)
        assert math.cos(phi) == pytest.approx(dot, abs=TOL)


class TestHiddenVariable:
    def test_predetermined_outcomes_sum_to_zero(self):
        lam = HiddenVariable(Direction(0.3), 1)
        assert lam.predetermined(1) + lam.predetermined(2) == 0
        assert second_particle(lam) == lam.predetermined(2) == -1
        assert second_particle(HiddenVariable(Direction(0.3), -1)) == 1

    @pytest.mark.parametrize("bad", [0, 2, -2, True])
    def test_rejects_non_spin_values(self, bad):
        with pytest.raises(ValidationError):
            HiddenVariable(Direction(0.0), bad)


class TestSpinVector:
    def test_along_z_axis(self):
        lam = HiddenVariable(Direction(0.0), 1)
        assert spin_vector(lam, 1).components == pytest.approx((0.0, 0.0, 1.0), abs=TOL)
        assert spin_vector(lam, 2).components == pytest.approx((0.0, 0.0, -1.0), abs=TOL)

    def test_along_y_axis_negative_sign(self):
        lam = HiddenVariable(Direction(math.pi / 2), -1)
        assert spin_vector(lam, 1).components == pytest.approx((0.0, -1.0, 0.0), abs=TOL)

    def test_invalid_particle_rejected(self):
        lam = HiddenVariable(Direction(0.0), 1)
        with pytest.raises(ValidationError):
            spin_vector(lam, 3)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValidationError):
            SpinVector((0.0, 1.0, 1.0))

    @given(angles, signs, st.sampled_from([1, 2]))
    def test_always_unit_norm(self, theta, sign, particle):
        v = spin_vector(HiddenVariable(Direction(theta), sign), particle)
        assert abs(math.hypot(*v.components) - 1.0) <= TOL


class TestMeanValue:
    def test_own_axis_is_certain(self):
        axis = Direction(1.1)
        for sign in (1, -1):
            lam = HiddenVariable(axis, sign)
            assert mean_value(lam, 1, axis) == sign
            assert mean_value(lam, 2, axis) == -sign

    def test_sixty_degrees(self):
        lam = HiddenVariable(Direction(0.0), 1)
        assert mean_value(lam, 2, Direction(math.pi / 3)) == pytest.approx(-0.5, abs=TOL)

    def test_orthogonal_projection(self):
        lam = HiddenVariable(Direction(0.0), 1)
        assert mean_value(lam, 1, Direction(math.pi / 2)) == pytest.approx(0.0, abs=TOL)

    @given(angles, angles, signs, st.sampled_from([1, 2]))
    def test_projection_formula(self, t1, t2, sign, particle):
        lam = HiddenVariable(Direction(t1), sign)
        axis = Direction(t2)
        assert mean_value(lam, particle, axis) == pytest.approx(
            spin_vector(lam, particle).project(axis), abs=TOL
        )


class TestConditionalOutcomeProb:
    def test_certainty_on_own_axis(self):
        axis = Direction(0.7)
        for r in (1, -1):
            lam = HiddenVariable(axis, r)
            assert conditional_outcome_prob(lam, 1, axis, r) == 1.0
            assert conditional_outcome_prob(lam, 1, axis, -r) == 0.0

    def test_orthogonal_axis_is_even(self):
        lam = HiddenVariable(Direction(0.0), 1)
        p = conditional_outcome_prob(lam, 2, Direction(math.pi / 2), 1)
        assert p == pytest.approx(0.5, abs=TOL)

    def test_antiparallel_axis_flips_certainty(self):
        lam = HiddenVariable(Direction(0.0), 1)
        assert conditional_outcome_prob(lam, 2, Direction(math.pi), 1) == 1.0

    @given(angles, angles, signs, st.sampled_from([1, 2]))
    def test_outcome_probabilities_normalize(self, t1, t2, sign, particle):
        lam = HiddenVariable(Direction(t1), sign)
        axis = Direction(t2)
        total = conditional_outcome_prob(lam, particle, axis, 1) + conditional_outcome_prob(
            lam, particle, axis, -1
        )
        assert total == pytest.approx(1.0, abs=TOL)

    def test_rejects_invalid_outcome(self):
        lam = HiddenVariable(Direction(0.0), 1)
        with pytest.raises(ValidationError):
            conditional_outcome_prob(lam, 1, Direction(0.0), 0)


class TestJointOutcomeProb:
    def test_equal_axes_perfect_anticorrelation(self):
        axis = Direction(0.4)
        for r in (1, -1):
            lam = HiddenVariable(axis, r)
            assert joint_outcome_prob(lam, axis, axis, r, -r) == 1.0
            assert joint_outcome_prob(lam, axis, axis, r, r) == 0.0

    def test_sixty_degree_cell(self):
        # Oracle: certainty on the anchored side times (1 - cos(pi/3))/2.
        expected = 1.0 * 0.5 * (1.0 - math.cos(math.pi / 3))
        lam = HiddenVariable(Direction(0.0), 1)
        got = joint_outcome_prob(lam, Direction(0.0), Direction(math.pi / 3), 1, 1)
        assert got == pytest.approx(expected, abs=TOL)
        assert got == pytest.approx(0.25, abs=TOL)

    @given(angles, angles, angles, signs)
    def test_four_cells_normalize(self, t0, t1, t2, sign):
        lam = HiddenVariable(Direction(t0), sign)
        a1, a2 = Direction(t1), Direction(t2)
        total = sum(
            joint_outcome_prob(lam, a1, a2, r, q) for r in (1, -1) for q in (1, -1)
        )
        assert total == pytest.approx(1.0, abs=TOL)


class TestPairExpectation:
    def test_anchored_equals_minus_cosine(self):
        a, b = Direction(0.0), Direction(1.2)
        for sign in (1, -1):
            lam = HiddenVariable(a, sign)
            assert pair_expectation(lam, a, b) == pytest.approx(
                -math.cos(angle_between(a, b)), abs=TOL
            )

    def test_equal_axes(self):
        a = Direction(0.0)
        assert pair_expectation(HiddenVariable(a, -1), a, a) == pytest.approx(-1.0, abs=TOL)

    def test_orthogonal(self):
        a, b = Direction(0.0), Direction(math.pi / 2)
        assert pair_expectation(HiddenVariable(a, 1), a, b) == pytest.approx(0.0, abs=TOL)

    @given(angles, angles, angles)
    def test_invariant_under_sign_flip(self, t0, t1, t2):
        axis, a1, a2 = Direction(t0), Direction(t1), Direction(t2)
        plus = pair_expectation(HiddenVariable(axis, 1), a1, a2)
        minus = pair_expectation(HiddenVariable(axis, -1), a1, a2)
        assert plus == pytest.approx(minus, abs=TOL)


class TestSubquantumCorrelation:
    def test_zero_for_1000_random_configurations(self):
        import numpy as np

        rng = np.random.default_rng(1234)
        for _ in range(1000):
            t_axis, t_other = rng.uniform(0.0, 2.0 * math.pi, size=2)
            sign = 1 if rng.random() < 0.5 else -1
            lam = HiddenVariable(Direction(t_axis), sign)
            c = subquantum_correlation(lam, Direction(t_axis), Direction(t_other))
            assert abs(c) <= TOL

    def test_equal_axes_negative_sign(self):
        a = Direction(0.0)
        assert abs(subquantum_correlation(HiddenVariable(a, -1), a, a)) <= TOL

    def test_bob_description_form(self):
        a, b = Direction(0.2), Direction(1.5)
        lam = HiddenVariable(b, -1)  # anchored to the second observer's axis
        assert abs(subquantum_correlation(lam, a, b)) <= TOL

    def test_mismatched_context_rejected(self):
        lam = HiddenVariable(Direction(2.0), 1)
        with pytest.raises(ContextMismatchError):
            subquantum_correlation(lam, Direction(0.0), Direction(1.0))


class TestMarginalExpectation:
    @given(angles, angles, st.sampled_from([1, 2]))
    def test_exactly_zero(self, t1, t2, particle):
        assert marginal_expectation(Direction(t1), particle, Direction(t2)) == 0.0

    def test_spec_cases(self):
        a, b = Direction(0.0), Direction(math.pi / 3)
        assert marginal_expectation(a, 2, b) == 0.0
        assert marginal_expectation(a, 1, a) == 0.0
        assert marginal_expectation(b, 1, a) == 0.0


class TestQuantumCorrelation:
    def test_sixty_degrees(self):
        c = quantum_correlation(Direction(0.0), Direction(math.pi / 3))
        assert c == pytest.approx(-0.5, abs=TOL)

    def test_equal_axes_perfect_anticorrelation(self):
        a = Direction(0.9)
        assert quantum_correlation(a, a) == pytest.approx(-1.0, abs=TOL)
        for d in ("alice", "bob"):
            assert quantum_pair_expectation(a, a, d) == pytest.approx(-1.0, abs=TOL)

    def test_orthogonal(self):
        a, b = Direction(0.0), Direction(math.pi / 2)
        assert abs(quantum_correlation(a, b)) <= TOL
        assert abs(quantum_pair_expectation(a, b, "bob")) <= TOL

    def test_minus_cosine_identity_1000_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            a, b = Direction(t1), Direction(t2)
            phi = angle_between(a, b)
            assert abs(quantum_correlation(a, b) + math.cos(phi)) <= TOL
            for d in ("alice", "bob"):
                assert abs(quantum_pair_expectation(a, b, d) + math.cos(phi)) <= TOL

    @given(angles, angles)
    def test_descriptions_agree(self, t1, t2):
        # The Alice-anchored correlation equals the Bob-anchored average bit for bit.
        a, b = Direction(t1), Direction(t2)
        bob = quantum_pair_expectation(a, b, "bob")
        assert quantum_correlation(a, b) == bob == quantum_pair_expectation(a, b)

    @given(angles, angles)
    def test_covariance_equals_pair_expectation(self, t1, t2):
        # Marginals vanish, so the covariance and the raw pair mean coincide.
        a, b = Direction(t1), Direction(t2)
        assert quantum_correlation(a, b) == pytest.approx(
            quantum_pair_expectation(a, b), abs=TOL
        )


def bits(values) -> list[int]:
    """Each float's bit pattern, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_sweep_equals_scalar(start, step, count):
    """correlation_sweep's angles are start + i * step, and each correlation the scalar's.

    The points come in full blocks of SWEEP_BLOCK, then one more of at most that many.
    """
    blocks = list(correlation_sweep(start, step, count))
    assert all(len(block) == 2 * SWEEP_BLOCK for block in blocks[:-1])
    assert 0 < len(blocks[-1]) <= 2 * SWEEP_BLOCK
    cells = [c for block in blocks for c in block]
    assert len(cells) == 2 * count and all(type(c) is float for c in cells)
    angles, corrs = cells[::2], cells[1::2]
    assert bits(angles) == bits([start + i * step for i in range(count)])
    assert bits(corrs) == bits([quantum_correlation(Direction(0.0), Direction(a)) for a in angles])


class TestCosineCore:
    def test_sweep_equals_scalar_over_a_full_turn(self):
        assert_sweep_equals_scalar(0.0, math.radians(0.01), 36_001)  # --sweep 0:360:0.01deg

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 20))
    def test_sweep_equals_scalar_for_any_finite_angles(self, start, step, count):
        if math.isfinite(start + (count - 1) * step):
            assert_sweep_equals_scalar(start, step, count)
        else:
            with pytest.raises(ValidationError, match=r"^start \+ \(count - 1\) \* step must be "):
                correlation_sweep(start, step, count)

    def test_sweep_equals_scalar_at_the_edges(self):
        two_pi = 2.0 * math.pi
        for phi in (0.0, 5e-324, -5e-324, -1e-17, 1e300, -1e300, math.pi, -math.pi, two_pi,
                    -two_pi, math.nextafter(two_pi, 0.0), -math.nextafter(two_pi, 0.0),
                    math.nextafter(two_pi, 7.0)):
            assert_sweep_equals_scalar(phi, 1.0, 1)
        assert_sweep_equals_scalar(-0.0, -1.0, 2)  # -0.0 + 0 * -1.0 keeps the sign
        assert_sweep_equals_scalar(-1e3, 0.1, 20_001)
        for count in (SWEEP_BLOCK, SWEEP_BLOCK + 1):  # a full last block, and one point past it
            assert_sweep_equals_scalar(1.0, -0.3, count)

    def test_scalar_cosines_give_a_float(self):
        a, b = Direction(0.0), Direction(math.pi / 3)
        c = quantum_correlation(a, b)
        assert type(c) is float
        assert c == _quantum_pair(1.0, axis_cosine(a, b))
        assert c == pytest.approx(-0.5, abs=TOL)

    def test_the_law_keeps_every_bit_of_the_formula_with_marginals(self):
        """The law once subtracted the product of the two marginals, each exactly +0.0."""

        def with_marginals(c):
            def marginal(sign, c):
                return 0.5 * (sign * c) + 0.5 * (-sign * c)

            return _quantum_pair(1.0, c) - marginal(1, 1.0) * marginal(-1, c)

        rng = np.random.default_rng(29)
        edges = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
        cosines = edges + rng.uniform(-1.0, 1.0, 20_000).tolist()
        reference = bits([with_marginals(c) for c in cosines])
        assert bits([_quantum_pair(1.0, c) for c in cosines]) == reference
        array = np.array(cosines)
        assert bits(_quantum_pair(1.0, array)) == bits(with_marginals(array)) == reference
        for t1, t2 in rng.uniform(-10.0, 10.0, (2_000, 2)).tolist():
            a, b = Direction(t1), Direction(t2)
            assert bits([quantum_correlation(a, b)]) == bits([with_marginals(axis_cosine(a, b))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_sweep_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValidationError):
            correlation_sweep(0.0, bad, 3)


def test_importing_the_package_loads_no_numpy():
    """The package root, its checks, the analytic model and the report renderer need no numpy:
    only the engine (``rng``) imports it, and the sweep where it runs.  Nor does the Monte
    Carlo library load the report layer: the CLI judges its runs."""
    import subprocess
    import sys

    for modules, absent in (("bellsim, bellsim.spinmodel, bellsim.report", "numpy"),
                            ("bellsim.montecarlo", "bellsim.report")):
        child = f"import sys, {modules}; print({absent!r} in sys.modules)"
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False", modules
