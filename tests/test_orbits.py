import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import orbits
from ladderlab import (
    CircleDynamics,
    continuous_position,
    density_metrics,
    simulate_torus,
    thooft_system,
    touch_points,
)

TWO_PI = 2 * math.pi
GOLDEN = math.pi * (math.sqrt(5) - 1)  # rotation 2*pi*(sqrt(5)-1)/2


def circular_gaps(angles) -> np.ndarray:
    ordered = np.sort(np.asarray(angles))
    return np.append(np.diff(ordered), ordered[0] + TWO_PI - ordered[-1])


class TestCircleDynamics:
    def test_rational_reduces(self):
        d = CircleDynamics.rational(1.0, 6, 8)
        assert d.q == Fraction(3, 4)

    def test_rational_bounds(self):
        with pytest.raises(ValueError):
            CircleDynamics.rational(1.0, 5, 3)
        with pytest.raises(ValueError):
            CircleDynamics.rational(1.0, 0, 3)

    def test_positive_frequencies(self):
        with pytest.raises(ValueError):
            CircleDynamics.irrational(-1.0, 2.0)
        with pytest.raises(ValueError):
            CircleDynamics.irrational(1.0, 0.0)


class TestContinuousPosition:
    def test_start_at_unit_x(self):
        d = CircleDynamics.rational(1.0, 5, 7)
        x, y = continuous_position(d, 0.0)
        assert (x, y) == (1.0, 0.0)

    def test_touch_time_on_circle(self):
        d = CircleDynamics.rational(2.0, 5, 7)
        x, y = continuous_position(d, math.pi / d.alpha)
        assert abs(x * x + y * y - 1.0) < 1e-12

    def test_envelope_node(self):
        d = CircleDynamics.rational(1.0, 1, 2)
        x, y = continuous_position(d, math.pi / (2 * d.alpha))
        assert abs(x) < 1e-12 and abs(y) < 1e-12


class TestTouchPoints:
    def test_radius_invariant(self):
        d = CircleDynamics.irrational(1.3, 1.3 * (5 / 3 + math.pi / 40))
        trace = touch_points(d, 500)
        radii = trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_touch_times(self):
        d = CircleDynamics.rational(2.5, 5, 7)
        trace = touch_points(d, 4)
        assert np.allclose(trace.times, np.arange(1, 5) * math.pi / 2.5)

    def test_seven_site_first_angle(self):
        trace = touch_points(thooft_system(7), 3)
        assert abs(trace.angles[0] - 2 * math.pi / 7) < 1e-12

    def test_eight_site_reduction_and_period(self):
        d = thooft_system(8)
        assert d.q == Fraction(3, 4)
        trace = touch_points(d, 8)
        assert abs(trace.angles[0] - math.pi / 4) < 1e-12
        assert trace.period_steps == 8

    def test_three_site_angles(self):
        trace = touch_points(thooft_system(3), 3)
        assert np.allclose(trace.angles, [2 * math.pi / 3, 4 * math.pi / 3, 0.0], atol=1e-12)

    def test_consistent_with_continuous_curve(self):
        # emitted touch points equal the curve evaluated at t_j
        d = CircleDynamics.rational(1.0, 5, 7)
        trace = touch_points(d, 20)
        x, y = continuous_position(d, trace.times)
        assert np.max(np.abs(x - trace.points[:, 0])) < 1e-10
        assert np.max(np.abs(y - trace.points[:, 1])) < 1e-10

    def test_irrational_never_closes(self):
        # exhaustive scan: no touch angle returns to 0 within 1e-9 over 1e4 steps
        d = CircleDynamics.irrational(1.0, 5 / 3 + math.pi / 40)
        trace = touch_points(d, 10**4)
        distance_to_zero = np.minimum(trace.angles, TWO_PI - trace.angles)
        assert trace.period_steps is None
        assert np.min(distance_to_zero) > 1e-9

    def test_count_validation(self):
        with pytest.raises(ValueError):
            touch_points(thooft_system(5), 0)

    @pytest.mark.parametrize("num, den, count", [
        (59998, 60000, 60_000),
        (5, 13, 60_000),
        (1, 2**30 + 3, 60_000),
        (1, 2**61, 4),  # count * (den - num) = 2**63 - 4, the largest product that fits
    ])
    def test_int64_residues_match_object_oracle(self, num, den, count):
        angles = rational_touch_angles(num, den, count)
        trace = touch_points(CircleDynamics.rational(1.0, num, den), count)
        assert np.array_equal(trace.angles, angles)
        assert np.array_equal(trace.points, np.column_stack([np.cos(angles), np.sin(angles)]))

    @pytest.mark.parametrize("num, den, count", [
        (1, 2**61 + 1, 4),  # count * (den - num) = 2**63
        (1, 2**62, 1),      # 2 * den = 2**63
    ])
    def test_int64_overflow_rejected(self, num, den, count):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            touch_points(CircleDynamics.rational(1.0, num, den), count)


def rational_touch_angles(num: int, den: int, count: int) -> np.ndarray:
    """Oracle: the touch angles in Python integers (object dtype), never overflowing."""
    residues = (np.arange(1, count + 1, dtype=object) * (den - num)) % (2 * den)
    return np.array([math.pi * int(r) / den for r in residues])


class TestThooftSystem:
    @pytest.mark.parametrize("n", [7, 8])
    def test_quoted_ratios(self, n):
        assert thooft_system(n).q == Fraction(n - 2, n)

    @pytest.mark.parametrize("n", range(3, 41))
    def test_rational_closure(self, n):
        trace = touch_points(thooft_system(n), n)
        assert trace.period_steps == n
        expected = sorted((TWO_PI * j / n) % TWO_PI for j in range(n))
        assert np.allclose(np.sort(trace.angles), expected, atol=1e-12)
        # exactly once per period
        assert np.min(circular_gaps(trace.angles)) > TWO_PI / n - 1e-12

    def test_needs_three_sites(self):
        with pytest.raises(ValueError):
            thooft_system(2)


@settings(max_examples=60, deadline=None)
@given(
    den=st.integers(min_value=3, max_value=50),
    num=st.integers(min_value=1, max_value=49),
)
def test_rational_orbits_close_exactly(den, num):
    if num >= den:
        num = den - 1
    d = CircleDynamics.rational(1.0, num, den)
    trace = touch_points(d, trace_period(d))
    # the orbit lands on 0 (mod 2 pi) exactly at the stated period
    assert abs(trace.angles[-1]) < 1e-12
    radii = trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def trace_period(d: CircleDynamics) -> int:
    return touch_points(d, 1).period_steps


class TestTorus:
    def test_rational_rotations_return_to_start(self):
        orbit = simulate_torus(TWO_PI / 5, TWO_PI / 7, 1.0, 35)
        assert np.max(np.abs(orbit.angles[-1])) < 1e-12  # lcm(5, 7) jumps land on (0, 0)

    def test_closed_form_invariant(self):
        orbit = simulate_torus(0.31, 1.7, 2.0, 400, (0.2, 5.1))
        j = np.arange(1, 401)
        expected1 = (0.2 + j * 0.31 * 2.0) % TWO_PI
        expected2 = (5.1 + j * 1.7 * 2.0) % TWO_PI
        assert np.max(np.abs(orbit.angles[:, 0] - expected1)) < 1e-9
        assert np.max(np.abs(orbit.angles[:, 1] - expected2)) < 1e-9

    def test_irrational_never_revisits_start(self):
        orbit = simulate_torus(1.0, math.sqrt(2), 1.0, 10**4, (0.0, 0.0))
        d1 = np.minimum(orbit.angles[:, 0], TWO_PI - orbit.angles[:, 0])
        d2 = np.minimum(orbit.angles[:, 1], TWO_PI - orbit.angles[:, 1])
        assert np.min(np.maximum(d1, d2)) > 1e-9

    def test_latitude_frozen_only_without_rotation(self):
        orbit = simulate_torus(1.1, 0.0, 1.0, 50, (0.3, 0.4))
        assert np.max(np.abs(orbit.angles[:, 1] - 0.4)) < 1e-15
        assert np.std(orbit.angles[:, 0]) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_torus(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            simulate_torus(1.0, 1.0, -1.0, 5)


class TestDensityMetrics:
    def test_golden_rotation_dense(self):
        orbit = simulate_torus(GOLDEN, GOLDEN, 1.0, 10**4)
        gap1, gap2 = density_metrics(orbit)
        assert gap1 < 1e-2 and gap2 < 1e-2

    def test_rational_rotation_gap_stalls(self):
        for steps in (5, 50, 500):
            orbit = simulate_torus(TWO_PI / 5, TWO_PI / 5, 1.0, steps)
            gap1, gap2 = density_metrics(orbit)
            assert abs(gap1 - TWO_PI / 5) < 1e-12
            assert abs(gap2 - TWO_PI / 5) < 1e-12

    def test_single_point_reports_full_circle(self):
        orbit = simulate_torus(1.0, 1.0, 1.0, 1)
        assert density_metrics(orbit) == (TWO_PI, TWO_PI)

    @pytest.mark.parametrize("steps", [100, 1000, 10000])
    def test_doubling_steps_shrinks_gap(self, steps):
        small = density_metrics(simulate_torus(GOLDEN, GOLDEN, 1.0, steps))[0]
        large = density_metrics(simulate_torus(GOLDEN, GOLDEN, 1.0, 2 * steps))[0]
        assert large < small

    def test_library_gaps_match_the_oracle(self):
        angles = simulate_torus(GOLDEN, 1.0, 1.0, 777, (0.1, 0.2)).angles[:, 0]
        assert np.array_equal(orbits.circular_gaps(angles), circular_gaps(angles))

    @pytest.mark.parametrize("angle", [0.0, 0.1, 3.0, TWO_PI - 1e-9])
    def test_single_angle_gap_is_exactly_the_circle(self, angle):
        assert orbits.circular_gaps(np.array([angle])).tolist() == [TWO_PI]

    def test_matches_brute_force_sort(self):
        orbit = simulate_torus(GOLDEN, 1.0, 1.0, 777, (0.1, 0.2))
        gap1, gap2 = density_metrics(orbit)
        assert abs(gap1 - float(np.max(circular_gaps(orbit.angles[:, 0])))) < 1e-15
        assert abs(gap2 - float(np.max(circular_gaps(orbit.angles[:, 1])))) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    rot1=st.floats(min_value=0.01, max_value=6.0),
    rot2=st.floats(min_value=0.01, max_value=6.0),
    phi1=st.floats(min_value=0.0, max_value=6.0),
    phi2=st.floats(min_value=0.0, max_value=6.0),
    steps=st.integers(min_value=1, max_value=300),
)
def test_torus_reversibility(rot1, rot2, phi1, phi2, steps):
    forward = simulate_torus(rot1, rot2, 1.0, steps, (phi1, phi2))
    backward = simulate_torus(-rot1, -rot2, 1.0, steps, tuple(forward.angles[-1]))
    start = np.array([phi1 % TWO_PI, phi2 % TWO_PI])
    recovered = backward.angles[-1]
    gap = np.abs(recovered - start)
    gap = np.minimum(gap, TWO_PI - gap)
    assert np.max(gap) < 1e-9


# The per-step loops that stored each angle into numpy, kept as oracles for
# `orbits._rotations`: the float sequence, and so every byte, must not change.

def itemwise_torus(alpha1, alpha2, tau, steps, phi0):
    d1, d2 = alpha1 * tau, alpha2 * tau
    p1, p2 = phi0[0] % TWO_PI, phi0[1] % TWO_PI
    angles = np.empty((steps, 2))
    for j in range(steps):
        p1 = (p1 + d1) % TWO_PI
        p2 = (p2 + d2) % TWO_PI
        angles[j, 0] = p1
        angles[j, 1] = p2
    return angles


def itemwise_touch_angles(d, count):
    delta = (1.0 - d.beta / d.alpha) * math.pi
    angles = np.empty(count)
    theta = 0.0
    for i in range(count):
        theta = (theta + delta) % TWO_PI
        angles[i] = theta
    return angles


class TestRotationLoop:
    @pytest.mark.parametrize("alpha1, alpha2, tau, phi0", [
        (GOLDEN, GOLDEN, 1.0, (0.0, 0.0)),
        (0.31, -1.7, 2.0, (0.2, 5.1)),  # one step forward, one backward
        (-GOLDEN, 0.0, 1.0, (-3.5, 2.5)),  # a zero step, a start below 0
        (1e-9, 6.2, 0.5, (100.0, -TWO_PI)),  # starts beyond 2 pi and exactly at -2 pi
        (5.0, -5.0, 3.0, (TWO_PI, 7.0)),
    ])
    @pytest.mark.parametrize("steps", [1, 2, 1000])
    def test_torus_matches_itemwise_loop(self, alpha1, alpha2, tau, phi0, steps):
        orbit = simulate_torus(alpha1, alpha2, tau, steps, phi0)
        assert orbit.angles.tobytes() == itemwise_torus(alpha1, alpha2, tau, steps, phi0).tobytes()

    @pytest.mark.parametrize("beta", [
        5 / 3 + math.pi / 40,  # a negative step
        3 / 7 + 0.01,  # a positive step
        1.0,  # a zero step
        2.0 + 1e-12,  # a step just below -pi
    ])
    def test_touch_angles_match_itemwise_loop(self, beta):
        d = CircleDynamics.irrational(1.0, beta)
        trace = touch_points(d, 5000)
        assert trace.angles.tobytes() == itemwise_touch_angles(d, 5000).tobytes()

    def test_rotations_of_a_start_outside_the_circle(self):
        # the helper reduces each sum, the start included through the first one
        assert orbits._rotations(10.0, 0.0, 3) == [10.0 % TWO_PI] * 3
        assert orbits._rotations(-1.0, 0.5, 2) == [(-1.0 + 0.5) % TWO_PI,
                                                   ((-1.0 + 0.5) % TWO_PI + 0.5) % TWO_PI]
        assert orbits._rotations(1.0, 1.0, 0) == []
