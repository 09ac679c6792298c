import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import orbits
from ladderlab import density_metrics, simulate_torus, thooft_system, touch_points
from ladderlab.orbits import CircleDynamics, continuous_position
from oracles import rational_touch_angles

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
            CircleDynamics(-1.0, 2.0, None)
        with pytest.raises(ValueError):
            CircleDynamics(1.0, 0.0, None)


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
        d = CircleDynamics(1.3, 1.3 * (5 / 3 + math.pi / 40), None)
        trace = touch_points(d, 500)
        radii = trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_touch_times(self):
        d = CircleDynamics.rational(2.5, 5, 7)
        trace = touch_points(d, 4)
        times = np.arange(1, trace.count + 1) * trace.time_step
        assert np.allclose(times, np.arange(1, 5) * math.pi / 2.5)

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
        # emitted touch points equal the curve evaluated at t_j, for every j
        d = CircleDynamics.rational(1.0, 5, 7)
        trace = touch_points(d, 20)
        assert trace.period_steps == 7 and trace.points.shape == (7, 2)
        x, y = continuous_position(d, np.arange(1, trace.count + 1) * trace.time_step)
        points = trace.points[np.arange(20) % 7]  # touch j is point (j - 1) mod 7
        assert np.max(np.abs(x - points[:, 0])) < 1e-10
        assert np.max(np.abs(y - points[:, 1])) < 1e-10

    def test_irrational_never_closes(self):
        # exhaustive scan: no touch angle returns to 0 within 1e-9 over 1e4 steps
        d = CircleDynamics(1.0, 5 / 3 + math.pi / 40, None)
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
        assert len(trace.angles) == len(trace.points) == min(count, trace.period_steps)
        # every touch j, read from the stored period
        stored = np.arange(count) % len(trace.angles)
        assert np.array_equal(trace.angles[stored], angles)
        assert np.array_equal(trace.points[stored],
                              np.column_stack([np.cos(angles), np.sin(angles)]))

    @pytest.mark.parametrize("count", [1, 12, 13, 14, 27, 60_000])
    def test_closed_orbit_stores_one_period(self, count):
        # q = 5/13 closes after 13 touches; every touch keeps its own time
        trace = touch_points(CircleDynamics.rational(2.0, 5, 13), count)
        assert trace.period_steps == 13
        assert trace.angles.shape == (min(count, 13),)
        assert trace.points.shape == (min(count, 13), 2)
        times = np.arange(1, trace.count + 1) * trace.time_step
        assert np.array_equal(times, np.arange(1, count + 1) * (math.pi / 2.0))

    def test_irrational_orbit_stores_every_touch(self):
        trace = touch_points(CircleDynamics(1.0, 5 / 13 + 0.01, None), 300)
        assert trace.angles.shape == (300,) and trace.points.shape == (300, 2)

    def test_closed_orbit_reach(self):
        # a million touches of q = 5/13 hold one period and no times: 2 kB
        # measured (8.0 MB with an array of times, 56 MB when every touch had
        # its residue, angle and point)
        tracemalloc.start()
        try:
            trace = touch_points(CircleDynamics.rational(1.0, 5, 13), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.count == 10**6 and len(trace.angles) == 13
        assert peak < 20_000, f"tracemalloc peak {peak / 1e3:.1f} kB"

    @pytest.mark.parametrize("num, den, count", [
        (1, 2**61 + 1, 4),  # count * (den - num) = 2**63
        (1, 2**62, 1),      # 2 * den = 2**63
    ])
    def test_int64_overflow_rejected(self, num, den, count):
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            touch_points(CircleDynamics.rational(1.0, num, den), count)


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
        angles = simulate_torus(TWO_PI / 5, TWO_PI / 7, 35)
        assert np.max(np.abs(angles[-1])) < 1e-12  # lcm(5, 7) jumps land on (0, 0)

    def test_closed_form_invariant(self):
        angles = simulate_torus(0.31 * 2.0, 1.7 * 2.0, 400, (0.2, 5.1))
        j = np.arange(1, 401)
        expected1 = (0.2 + j * 0.31 * 2.0) % TWO_PI
        expected2 = (5.1 + j * 1.7 * 2.0) % TWO_PI
        assert np.max(np.abs(angles[:, 0] - expected1)) < 1e-9
        assert np.max(np.abs(angles[:, 1] - expected2)) < 1e-9

    def test_irrational_never_revisits_start(self):
        angles = simulate_torus(1.0, math.sqrt(2), 10**4, (0.0, 0.0))
        d1 = np.minimum(angles[:, 0], TWO_PI - angles[:, 0])
        d2 = np.minimum(angles[:, 1], TWO_PI - angles[:, 1])
        assert np.min(np.maximum(d1, d2)) > 1e-9

    def test_latitude_frozen_only_without_rotation(self):
        angles = simulate_torus(1.1, 0.0, 50, (0.3, 0.4))
        assert np.max(np.abs(angles[:, 1] - 0.4)) < 1e-15
        assert np.std(angles[:, 0]) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_torus(1.0, 1.0, 0)


class TestDensityMetrics:
    def test_golden_rotation_dense(self):
        angles = simulate_torus(GOLDEN, GOLDEN, 10**4)
        gap1, gap2 = density_metrics(angles)
        assert gap1 < 1e-2 and gap2 < 1e-2

    def test_rational_rotation_gap_stalls(self):
        for steps in (5, 50, 500):
            angles = simulate_torus(TWO_PI / 5, TWO_PI / 5, steps)
            gap1, gap2 = density_metrics(angles)
            assert abs(gap1 - TWO_PI / 5) < 1e-12
            assert abs(gap2 - TWO_PI / 5) < 1e-12

    def test_single_point_reports_full_circle(self):
        angles = simulate_torus(1.0, 1.0, 1)
        assert density_metrics(angles) == (TWO_PI, TWO_PI)

    @pytest.mark.parametrize("steps", [100, 1000, 10000])
    def test_doubling_steps_shrinks_gap(self, steps):
        small = density_metrics(simulate_torus(GOLDEN, GOLDEN, steps))[0]
        large = density_metrics(simulate_torus(GOLDEN, GOLDEN, 2 * steps))[0]
        assert large < small

    def test_library_gaps_match_the_oracle(self):
        angles = simulate_torus(GOLDEN, 1.0, 777, (0.1, 0.2))[:, 0]
        assert np.array_equal(orbits.circular_gaps(angles), circular_gaps(angles))

    @pytest.mark.parametrize("angle", [0.0, 0.1, 3.0, TWO_PI - 1e-9])
    def test_single_angle_gap_is_exactly_the_circle(self, angle):
        assert orbits.circular_gaps(np.array([angle])).tolist() == [TWO_PI]

    def test_matches_brute_force_sort(self):
        angles = simulate_torus(GOLDEN, 1.0, 777, (0.1, 0.2))
        gap1, gap2 = density_metrics(angles)
        assert abs(gap1 - float(np.max(circular_gaps(angles[:, 0])))) < 1e-15
        assert abs(gap2 - float(np.max(circular_gaps(angles[:, 1])))) < 1e-15


@settings(max_examples=40, deadline=None)
@given(
    rot1=st.floats(min_value=0.01, max_value=6.0),
    rot2=st.floats(min_value=0.01, max_value=6.0),
    phi1=st.floats(min_value=0.0, max_value=6.0),
    phi2=st.floats(min_value=0.0, max_value=6.0),
    steps=st.integers(min_value=1, max_value=300),
)
def test_torus_reversibility(rot1, rot2, phi1, phi2, steps):
    forward = simulate_torus(rot1, rot2, steps, (phi1, phi2))
    backward = simulate_torus(-rot1, -rot2, steps, tuple(forward[-1]))
    start = np.array([phi1 % TWO_PI, phi2 % TWO_PI])
    recovered = backward[-1]
    gap = np.abs(recovered - start)
    gap = np.minimum(gap, TWO_PI - gap)
    assert np.max(gap) < 1e-9


# The per-step loops that stored each angle into numpy.  `orbits._rotations`
# replaced them with a closed form, which must stay within their rounding
# drift: each step rounds the sum and its reduction, so the j-th angle of a
# loop may be off by up to j eps (2 pi + |step|).  The closed form itself is
# held to the exact value by `TestRotationOracle`.

EPS = float(np.finfo(float).eps)
U = EPS / 2


def itemwise_torus(d1, d2, steps, phi0):
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


def assert_within_loop_drift(angles, loop, step):
    j = np.arange(1, len(angles) + 1)
    gap = np.abs(angles - loop)
    gap = np.minimum(gap, TWO_PI - gap)
    assert np.all(gap <= j * EPS * (TWO_PI + abs(step)) + 2 * U * TWO_PI)


class TestRotationLoop:
    @pytest.mark.parametrize("alpha1, alpha2, phi0", [
        (GOLDEN, GOLDEN, (0.0, 0.0)),
        (0.31 * 2.0, -1.7 * 2.0, (0.2, 5.1)),  # one step forward, one backward
        (-GOLDEN, 0.0, (-3.5, 2.5)),  # a zero step, a start below 0
        (1e-9 * 0.5, 6.2 * 0.5, (100.0, -TWO_PI)),  # starts beyond 2 pi and exactly at -2 pi
        (5.0 * 3.0, -5.0 * 3.0, (TWO_PI, 7.0)),
    ])
    @pytest.mark.parametrize("steps", [1, 2, 1000])
    def test_torus_matches_itemwise_loop(self, alpha1, alpha2, phi0, steps):
        angles = simulate_torus(alpha1, alpha2, steps, phi0)
        loop = itemwise_torus(alpha1, alpha2, steps, phi0)
        assert_within_loop_drift(angles[:, 0], loop[:, 0], alpha1)
        assert_within_loop_drift(angles[:, 1], loop[:, 1], alpha2)

    @pytest.mark.parametrize("beta", [
        5 / 3 + math.pi / 40,  # a negative step
        3 / 7 + 0.01,  # a positive step
        1.0,  # a zero step
        2.0 + 1e-12,  # a step just below -pi
    ])
    def test_touch_angles_match_itemwise_loop(self, beta):
        d = CircleDynamics(1.0, beta, None)
        trace = touch_points(d, 5000)
        delta = (1.0 - d.beta / d.alpha) * math.pi
        assert_within_loop_drift(trace.angles, itemwise_touch_angles(d, 5000), delta)

    def test_rotations_of_a_start_outside_the_circle(self):
        # the start is reduced with the rotations, bit for bit as the loop did here
        assert orbits._rotations(10.0, 0.0, 3).tolist() == [10.0 % TWO_PI] * 3
        assert orbits._rotations(-1.0, 0.5, 2).tolist() == [(-1.0 + 0.5) % TWO_PI,
                                                            ((-1.0 + 0.5) % TWO_PI + 0.5) % TWO_PI]
        assert orbits._rotations(1.0, 1.0, 0).tolist() == []


def worst_error(angles, angle, step, js) -> float:
    """The largest distance on the circle of angles[j - 1] from the exact
    (angle + j step) mod TWO_PI over `js`, in units of u TWO_PI.

    The float `angle`, `step` and TWO_PI are taken as the exact rationals
    they are, so the reference carries no rounding.
    """
    a, s, t = Fraction(angle), Fraction(step), Fraction(TWO_PI)
    worst = Fraction(0)
    for j in js:
        gap = (Fraction(float(angles[j - 1])) - a - j * s) % t
        worst = max(worst, min(gap, t - gap))
    return float(worst / (Fraction(U) * t))


ORACLE_STEPS = [
    GOLDEN, -GOLDEN, 0.0, 1e-9, -1e-9, -2.5,
    math.nextafter(math.pi, 0.0), -math.nextafter(math.pi, 4.0),  # just below pi and -pi
    6.2, 100.0, -100.0, 1e300,  # near and beyond 2 pi
]
ORACLE_STARTS = [0.0, 5.1, -3.5, -TWO_PI, 100.0, TWO_PI, -1e-20]


class TestRotationOracle:
    """`orbits._rotations` against exact rational arithmetic: within 2 u TWO_PI at every j."""

    @pytest.mark.parametrize("step", ORACLE_STEPS)
    @pytest.mark.parametrize("count", [1, 2, 1000])
    def test_every_angle_within_two_units(self, step, count):
        for angle in ORACLE_STARTS:
            angles = orbits._rotations(angle, step, count)
            assert angles.dtype == np.float64 and angles.shape == (count,)
            assert worst_error(angles, angle, step, range(1, count + 1)) <= 2

    @pytest.mark.parametrize("step, angle", [(GOLDEN, 0.0), (-1e-9, 5.1), (6.2, -3.5),
                                             (-math.nextafter(math.pi, 4.0), 100.0)])
    def test_a_million_rotations_sampled(self, step, angle):
        count = 10**6
        angles = orbits._rotations(angle, step, count)
        js = [*range(1, 200), *range(count - 200, count + 1),
              *np.random.default_rng(1).integers(1, count + 1, 1500).tolist()]
        assert worst_error(angles, angle, step, js) <= 2

    def test_torus_and_touch_angles_are_the_closed_form(self):
        angles = simulate_torus(0.31 * 2.0, -1.7 * 2.0, 300, (0.2, 5.1))
        assert worst_error(angles[:, 0], 0.2, 0.31 * 2.0, range(1, 301)) <= 2
        assert worst_error(angles[:, 1], 5.1, -1.7 * 2.0, range(1, 301)) <= 2
        d = CircleDynamics(1.0, 3 / 7 + 0.01, None)
        delta = (1.0 - d.beta / d.alpha) * math.pi
        assert worst_error(touch_points(d, 300).angles, 0.0, delta, range(1, 301)) <= 2

    def test_writes_into_the_given_column(self):
        angles = np.full((2, 50), np.nan).T
        column = angles[:, 1]
        assert orbits._rotations(0.5, 0.25, 50, out=column) is column
        assert np.isnan(angles[:, 0]).all()
        assert worst_error(angles[:, 1], 0.5, 0.25, range(1, 51)) <= 2

    @pytest.mark.parametrize("angle, step", [(0.0, math.inf), (0.0, -math.inf), (0.0, math.nan),
                                             (math.nan, 1.0), (math.inf, 1.0)])
    def test_non_finite_step_or_start_is_rejected(self, angle, step):
        with pytest.raises(ValueError, match="finite"):
            orbits._rotations(angle, step, 3)

    def test_split_halves_are_exact_and_short(self):
        for value in (TWO_PI, GOLDEN, -2.5, 1e-9, math.nextafter(math.pi, 0.0)):
            hi, lo = orbits._split(value)
            assert Fraction(hi) + Fraction(lo) == Fraction(value)
            for half in (hi, lo):
                numerator = Fraction(abs(half)).numerator
                odd_part = numerator // (numerator & -numerator) if numerator else 0
                assert odd_part.bit_length() <= 26  # significant bits


def test_overflowing_rotation_rate_is_rejected():
    # a rate that overflows to inf once gave nan angles
    with pytest.raises(ValueError, match="finite"):
        simulate_torus(1e200 * 1e200, 1.0, 3)
    with pytest.raises(ValueError, match="finite"):
        touch_points(CircleDynamics(1e-300, 1e8, None), 3)
