"""Deterministic orbit models: a particle on a circle and on a 2-torus.

The circle system follows x(t) = cos(at) cos(bt), y(t) = -cos(at) sin(bt),
which touches the unit circle at the times t_j = j pi/a with touch angle
theta_j = j (1 - b/a) pi.  Rational frequency ratio b/a = M/N closes the orbit;
the N-site single-cover systems use M = N - 2, visiting the angles 2 pi j / N
once per period.  Irrational ratios never revisit a touch angle, and the
torus analogue (independent angle increments on two circles) fills each circle
densely, measured here through the largest circular gap of the visited angles.

Irrationality is a caller-supplied tag: rational ratios must arrive as integer
pairs, since floating point cannot decide the distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import checked_count

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CircleDynamics:
    """Envelope frequency alpha, rotation frequency beta, and exact ratio tag.

    `q` is the exact rational beta/alpha, or None for a ratio declared
    irrational by the caller.
    """

    alpha: float
    beta: float
    q: Fraction | None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.q is not None and not 0 < self.q < 1:
            raise ValueError("a rational ratio must satisfy 0 < M/N < 1 in lowest terms")

    @classmethod
    def rational(cls, alpha: float, num: int, den: int, offset: float = 0.0) -> "CircleDynamics":
        """beta = alpha (num/den + offset), tagged with the exact ratio num/den at offset 0.

        A nonzero offset declares the ratio irrational (q None).  den must be
        nonzero, and the ratio, and alpha times it, within the float range.
        """
        if den == 0:
            raise ValueError("den must be nonzero")
        try:
            beta = float(alpha) * num / den if offset == 0.0 else alpha * (num / den + offset)
        except OverflowError:  # an integer beyond the float range
            beta = math.inf
        if math.isinf(beta):
            raise ValueError("the ratio, or alpha times it, is beyond the float range")
        return cls(float(alpha), beta, Fraction(num, den) if offset == 0.0 else None)

    @classmethod
    def irrational(cls, alpha: float, beta: float) -> "CircleDynamics":
        return cls(alpha=float(alpha), beta=float(beta), q=None)


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Touch points of a circle orbit j = 1 .. count: unit-circle points and angles.

    Touch j happens at t_j = j * time_step, with time_step = pi / alpha.
    `period_steps` is the exact closure period for rational dynamics and None
    otherwise.  `angles` and `points` hold one period when
    `period_steps < count`, and every touch otherwise: touch j has angle
    `angles[(j - 1) % len(angles)]` and point `points[(j - 1) % len(points)]`,
    since a closed orbit repeats them bit for bit.
    """

    points: np.ndarray
    angles: np.ndarray
    period_steps: int | None
    count: int
    time_step: float


def continuous_position(d: CircleDynamics, t):
    """Underlying continuous curve (cos(at) cos(bt), -cos(at) sin(bt)).

    Accepts a scalar or an array of times.
    """
    t = np.asarray(t, dtype=float)
    envelope = np.cos(d.alpha * t)
    return envelope * np.cos(d.beta * t), -envelope * np.sin(d.beta * t)


def _split(value: float) -> tuple[float, float]:
    """Veltkamp's split: value == hi + lo exactly, each with at most 26 significant bits."""
    scaled = 134217729.0 * value  # (2**27 + 1) * value
    hi = scaled - (scaled - value)
    return hi, value - hi


TWO_PI_HI, TWO_PI_LO = _split(TWO_PI)
# Largest count of `_rotations`: it keeps |j lo - k TWO_PI_LO| below 1.2, which
# the error bound needs (any count below 1.49e7 would do).
MAX_ROTATIONS = 10**7


def _rotations(angle: float, step: float, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """The angles (angle + j step) mod 2 pi for j = 1 .. count, into `out` if given.

    A closed form, so no error builds up along the orbit.  With
    a = fmod(angle, 2 pi), hi + lo = fmod(step, 2 pi) and
    TWO_PI_HI + TWO_PI_LO = TWO_PI (`_split`), and k = floor((j hi + a) / 2 pi),

        x = (j hi - k TWO_PI_HI) + ((j lo - k TWO_PI_LO) + a)

    lies in (-0.6, 2 pi + 0.6) and is brought into [0, 2 pi) as `np.mod`
    would: a Cody-Waite reduction.

    Error bound, with u = 2**-53.  fmod is exact, and so are the four
    products (26-bit factors times integers below 2**24).  j hi - k TWO_PI_HI
    is exact too, unless |fmod(step, 2 pi)| < 2**-24 and k != 0: then it
    rounds by at most 4u, and j lo - k TWO_PI_LO is below 2**-23.  Otherwise
    j lo - k TWO_PI_LO is below 1.2 and rounds by at most u.  Adding a and
    forming x round numbers below 8, by at most 4u each, and a negative x
    (above -0.6, so it rounds by at most u/2) rounds by 4u more when 2 pi is
    added.  So each angle is within 12u + 2**-24 u < 2 u TWO_PI of the exact
    value for the float `angle` and `step`, at every j.  A per-step
    recurrence drifts by about j u TWO_PI instead.
    """
    if not (math.isfinite(angle) and math.isfinite(step)):
        raise ValueError(f"rotation step and start angle must be finite, got {step!r} and {angle!r}")
    if count > MAX_ROTATIONS:
        raise ValueError(f"at most {MAX_ROTATIONS} rotations, got {count}")
    start = math.fmod(angle, TWO_PI)
    hi, lo = _split(math.fmod(step, TWO_PI))
    if out is None:
        out = np.empty(count)
    j = np.arange(1, count + 1, dtype=np.float64)
    x = np.multiply(j, hi)
    k = np.add(x, start)
    k /= TWO_PI
    np.floor(k, out=k)
    j *= lo
    x -= np.multiply(k, TWO_PI_HI, out=out)
    j -= np.multiply(k, TWO_PI_LO, out=out)
    j += start
    x += j
    # x - 2 pi floor(x / 2 pi) for x in (-2 pi, 4 pi): the bits of np.mod, at a tenth of its time
    np.divide(x, TWO_PI, out=k)
    np.floor(k, out=k)
    k *= TWO_PI
    return np.subtract(x, k, out=out)


def touch_points(d: CircleDynamics, count: int) -> OrbitTrace:
    """The first `count` touches of the unit circle, j = 1 .. count.

    theta_j = j (1 - beta/alpha) pi reduced into [0, 2 pi).  Rational dynamics
    q = num/den use exact int64 arithmetic for the angle (so closure is exact
    to rounding), which needs count * (den - num) and 2 den below 2**63; their
    angles and points are computed for j = 1 .. min(count, period_steps) only,
    since theta_j depends on j through the periodic residue
    j (den - num) mod 2 den.  Irrational dynamics take the closed form of
    `_rotations`, within 2 u 2 pi of the exact angle at every j.  The emitted
    points are (cos theta_j, sin theta_j), which is what the continuous curve
    evaluates to at t_j = j pi / alpha.  No array of times is formed: the
    trace holds `count` and the step pi / alpha.
    """
    count = checked_count(count, "count", 1)
    if d.q is not None:
        num, den = d.q.numerator, d.q.denominator
        if max(count * (den - num), 2 * den) >= 2**63:
            raise ValueError(
                f"int64 touch angles need count * (den - num) and 2 * den below 2**63; "
                f"got count {count}, q = {num}/{den}"
            )
        period = 2 * den // math.gcd(den - num, 2 * den)
        # theta_j / pi = j (den - num) / den, reduced mod 2
        j = np.arange(1, min(count, period) + 1, dtype=np.int64)
        residues = (j * (den - num)) % (2 * den)
        angles = math.pi * residues.astype(float) / den
    else:
        angles = _rotations(0.0, (1.0 - d.beta / d.alpha) * math.pi, count)
        period = None
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    return OrbitTrace(points=points, angles=angles, period_steps=period, count=count,
                      time_step=math.pi / d.alpha)


def thooft_system(n_sites: int, alpha: float = 1.0) -> CircleDynamics:
    """Single-cover N-site circle dynamics, ratio q = (N - 2)/N.

    Its touch points visit the N equally spaced angles 2 pi j / N exactly once
    per period of N steps.
    """
    n_sites = checked_count(n_sites, "n_sites", 3)
    return CircleDynamics.rational(alpha, n_sites - 2, n_sites)


def simulate_torus(
    alpha1: float,
    alpha2: float,
    steps: int,
    phi0: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Iterate the torus jump map phi_i -> phi_i + alpha_i, mod 2 pi.

    Returns the (steps, 2) angles, row j - 1 the state after jump j, in
    [0, 2 pi)^2: the closed form (phi0_i + j alpha_i) mod 2 pi of
    `_rotations`.  Negative rates step the map backwards, which is how the
    inverse map is realized.
    """
    steps = checked_count(steps, "steps", 1)
    if len(phi0) != 2:
        raise ValueError(f"phi0 needs two angles, got {len(phi0)}")
    if not all(math.isfinite(v) for v in (alpha1, alpha2, *phi0)):
        raise ValueError("rotation rates and start angles must be finite")
    angles = np.empty((2, steps)).T  # each coordinate contiguous
    _rotations(phi0[0], alpha1, steps, out=angles[:, 0])
    _rotations(phi0[1], alpha2, steps, out=angles[:, 1])
    return angles


def circular_gaps(angles: np.ndarray) -> np.ndarray:
    """Gaps between circularly adjacent angles, wrap-around last; [2 pi] exactly for one angle."""
    ordered = np.sort(angles)
    if ordered.size < 2:
        return np.array([TWO_PI])
    return np.append(np.diff(ordered), ordered[0] + TWO_PI - ordered[-1])


def density_metrics(angles: np.ndarray) -> tuple[float, float]:
    """Largest circular gap of the visited (steps, 2) torus angles, per coordinate.

    For an irrational rotation the gap shrinks without bound as steps grow
    (three-distance theorem); for a rational rotation it stalls at the orbit
    spacing.  A single visited point reports the full circle, 2 pi.
    """
    return tuple(float(np.max(circular_gaps(column))) for column in angles.T)
