"""Schwinger-style two-mode boson realization of the su(1,1) ladders.

Two independent truncated oscillator modes A, B carry L+ = A†B†, L- = AB,
L3 = (A†A + B†B + 1)/2.  The Casimir is diagonal with eigenvalue
j = (n_A - n_B)/2, and each fixed-j sector reproduces the discrete series of
weight k = |j| + 1/2 entrywise (the j = 0 sector is the square-root-free
weight-1/2 ladder, the oscillator with its zero-point 1/2).  L+, L- and L3
keep j, so the basis is ordered by sector: ascending j, then ascending n_A,
which within a sector is ascending level.  One function, `_occupations`,
states that order: (n_A, n_B) of each state of a range of sectors.  Each
sector is then a contiguous run of the basis, L+ and L- are the single
offsets -1 and +1 with a zero at each sector boundary, and L3 is diagonal:
every check runs on the tridiagonal arithmetic of `algebra`'s ladders.
`_ladders` forms L3, L+ and L- from the occupations of any run of whole
sectors.  `sector_operators` reads one sector, which it returns as the
su(1,1) `LadderRep` it carries.  Each check is a function of the cutoff
n_max alone: `_sweep` runs its identity table over successive runs of whole
sectors of at most `RUN_STATES` states (one sector, if it alone holds
more).  No entry crosses a sector boundary, and `evaluate` keeps the
largest value of each name, so each result is the value over the whole
(n_max + 1)^2 space, bit for bit, which is never built.  On top of this
sits the dissipative Hamiltonian H0 = Omega (A†A - B†B),
HI = i Gamma (A†B† - AB) = -2 Gamma L2, formed from the occupations and the
ladders; HI and L2 are i times real operators, held as their real diagonals
(`Bands.imaginary`).  The single-mode operators A, B are not constant-offset
diagonals in this order and are not built.

Truncation lives at the per-mode cutoff n_max: the "interior" is the states
with both occupations below n_max, which is where every identity holds
exactly; `_sweep` masks it once per run.  The finite conjugation
e^{(pi/2) L1} L3 e^{-(pi/2) L1} is non-unitary and truncation-dominated, so
the library does not form it (the tests' oracles hold it as a diagnostic);
the infinitesimal relations [L1, L3] = -i L2 and [L1, [L1, L3]] = -L3, which
integrate to it, are the checked form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import EXACT_INTEGER_CEILING, checked_count, finite
from .algebra import LadderRep, Su11, _l1, _l2, discrete_series_elements
from .operators import Bands, Envelope, Identity, OperatorMatrix, evaluate, in_float_range

# The most states a run of whole sectors holds, unless one sector alone holds more.
RUN_STATES = 65536


@dataclass(frozen=True)
class DissipativeParams:
    """Splitting Omega and pumping Gamma > 0; the oscillator frequency is 2 Gamma."""

    Omega: float
    Gamma: float

    def __post_init__(self) -> None:
        if not (finite(self.Omega) and finite(self.Gamma)):
            raise ValueError("Omega and Gamma must be finite")
        if self.Gamma <= 0:
            raise ValueError("Gamma must be positive")


def _cutoff(n_max) -> int:
    """The cutoff n_max by `checked_count`, in 1 .. 2^53.

    The occupations are floats, and the integers a float holds exactly end
    at 2^53; the int64 sector and state indices hold far more.
    """
    return checked_count(n_max, "n_max", 1, ceiling=EXACT_INTEGER_CEILING)


def _occupations(n_max: int, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_A, n_B), as floats, of each state of the sectors 2j = first .. stop - 1 of cutoff n_max.

    This fixes the basis order: ascending j, and within sector j its
    n_max + 1 - |2j| states with n_A - n_B = 2j, in ascending n_A from max(2j, 0).
    """
    shifts = np.arange(first, stop)
    sizes = n_max + 1 - np.abs(shifts)
    # the index n_A = 0 would have in each sector, counted from the first state of the range
    origins = np.cumsum(sizes) - sizes - np.maximum(shifts, 0)
    n_a = np.arange(sizes.sum(), dtype=float) - np.repeat(origins, sizes)
    return n_a, n_a - np.repeat(shifts, sizes)


def _ladders(n_a: np.ndarray, n_b: np.ndarray) -> tuple[Bands, Bands, Bands]:
    """L3, L+ and L- on a run of whole sectors, from the occupations n_A and n_B of its states.

    Each entry is the one product the mode operators would form:
    <n_A, n_B|L+|n_A - 1, n_B - 1> = sqrt(n_A) sqrt(n_B), which is zero at a
    sector's first state (n_A or n_B = 0), so no entry crosses a sector
    boundary, and <n_A, n_B|L3|n_A, n_B> from sqrt(n_A)^2 + sqrt(n_B)^2.
    """
    root_a, root_b = np.sqrt(n_a), np.sqrt(n_b)
    # the raising element into each state is stored in that state's row
    lplus = Bands(len(root_a), {-1: root_a * root_b})
    return 0.5 * Bands.diag(root_a * root_a + root_b * root_b + 1.0), lplus, lplus.adjoint()


def _sweep(n_max: int, table, *args):
    """The identities of `table(*args, n_A, n_B, keep, L3, L+, L-)` over each run of whole sectors.

    The runs tile the basis in order, each of as many whole sectors as
    `RUN_STATES` holds, and at least one.  `keep` masks the run's interior,
    the states with both occupations below n_max, formed once per run.  A
    table derives what it needs of the occupations and drops them before
    its first identity, so one run's operators and masks are all that is
    held.
    """
    n_max = _cutoff(n_max)
    step = max(1, RUN_STATES // (n_max + 1))  # a sector holds at most n_max + 1 states
    for first in range(-n_max, n_max + 1, step):
        n_a, n_b = _occupations(n_max, first, min(first + step, n_max + 1))
        keep = (n_a < n_max) & (n_b < n_max)
        identities = table(*args, n_a, n_b, keep, *_ladders(n_a, n_b))
        del n_a, n_b, keep
        yield from identities


def casimir_interior_residual(n_max: int) -> dict[str, float]:
    """{"casimir_interior": max-entry gap between the ladder-form and the mode-form Casimir}.

    The gap is read on the interior.  The ladder form is
    C^2 = 1/4 + L3^2 - (L+L- + L-L+)/2, the mode form (A†A - B†B)^2/4 = j^2
    from the occupations.
    """
    return evaluate(_sweep(n_max, _casimir_identities))


def _casimir_identities(n_a, n_b, keep, l3, lp, lm):
    """The identity of `casimir_interior_residual`, read on the interior `keep`."""
    mode_form = Bands.diag(0.25 * (n_a - n_b) ** 2)
    del n_a, n_b
    yield Identity("casimir_interior", lambda: (
        0.25 * Bands.identity(l3.dim) + l3 @ l3 - 0.5 * lp.anticommutator(lm) - mode_form), keep)


def _casimir_root(n_a: np.ndarray, n_b: np.ndarray) -> Bands:
    """diag(|j|) = diag(|n_A - n_B|/2), from the occupations."""
    return Bands.diag(np.abs(n_a - n_b) / 2.0)


def sector_operators(n_max: int, j: float) -> LadderRep:
    """Sector j of cutoff n_max as the su(1,1) ladder it carries, of weight |j| + 1/2.

    Built from that sector's occupations alone, so its n_max + 1 - |2j|
    states cost nothing of the rest of the space.
    """
    n_max = _cutoff(n_max)
    shift = 2 * j
    if not (finite(shift) and float(shift).is_integer() and abs(shift) <= n_max):
        raise ValueError(f"no sector with j = {j} at n_max {n_max} "
                         "(2j must be an integer with |2j| <= n_max)")
    n_a, n_b = _occupations(n_max, int(shift), int(shift) + 1)
    return LadderRep(Su11(abs(j) + 0.5), len(n_a),
                     *map(OperatorMatrix, ("L3", "L+", "L-"), _ladders(n_a, n_b)))


def sector_match_residual(n_max: int) -> dict[str, float]:
    """{"sector_match": entrywise gap between the two-mode ladders and the discrete series}.

    Every sector is compared at once.  |n_A, n_B> is level
    n = min(n_A, n_B) of sector j = (n_A - n_B)/2, whose
    series has weight |j| + 1/2.  Each diagonal of L3, L+ and L- is compared
    with that series in the sector order: L3 on offset 0, L+ on -1 (into
    |n_A, n_B> from level n - 1, nothing into level 0, so nothing from the
    sector before) and L- on +1 (from level n + 1, nothing out of a sector's
    top state at n_A or n_B = n_max, where the sector is truncated).  Any
    other diagonal is a leak between sectors and counts in full.
    """
    return evaluate(_sweep(n_max, _sector_match_identities))


def _sector_match_identities(n_a, n_b, keep, l3, lp, lm):
    """The three identities of `sector_match_residual`, one per ladder."""
    weight = np.abs((n_a - n_b) / 2.0) + 0.5
    level = np.minimum(n_a, n_b)
    del n_a, n_b
    diagonal, raising = discrete_series_elements(weight, level)
    level -= 1.0
    raising_into = discrete_series_elements(weight, level)[1]
    lowering = np.where(keep, raising, 0.0)
    del keep, weight, level, raising
    yield Identity("sector_match", lambda: l3 - Bands(l3.dim, {0: diagonal}))
    yield Identity("sector_match", lambda: lp - Bands(lp.dim, {-1: raising_into}))
    yield Identity("sector_match", lambda: lm - Bands(lm.dim, {1: lowering}))


def dissipative_residuals(n_max: int, p: DissipativeParams) -> dict[str, float]:
    """Identity residuals for the dissipative Hamiltonian pieces.

    h0_vs_casimir compares Omega (A†A - B†B) with 2 Omega C on the j >= 0
    sectors only: C is the nonnegative Casimir root, so the signed mode form
    can match it only where j >= 0.  `dissipative_in_float_range` runs
    first.
    """
    dissipative_in_float_range(n_max, p)
    return evaluate(_sweep(n_max, _dissipative_run, p))


def _dissipative_run(p: DissipativeParams, n_a, n_b, keep, l3, lp, lm):
    """`_dissipative_identities` over one run's ladders, mode operators and interior."""
    return _dissipative_identities(p, lp, lm, *_mode_operators(n_a, n_b), keep)


def dissipative_in_float_range(n_max: int, p: DissipativeParams) -> None:
    """Raise unless the dissipative checks at cutoff n_max stay in the float range.

    Their table runs over `_mode_envelopes`, at a cost that does not grow
    with n_max, before anything is built; n_max is read as `_sweep` reads it.
    """
    n_max = _cutoff(n_max)
    if not in_float_range(_dissipative_identities(p, *_mode_envelopes(n_max))):
        raise ValueError(f"Omega = {p.Omega!r} and Gamma = {p.Gamma!r} put the dissipative "
                         f"checks at n_max {n_max} beyond the float range")


def _mode_operators(n_a: np.ndarray, n_b: np.ndarray) -> tuple[Bands, Bands, np.ndarray]:
    """What the dissipative table reads besides the ladders and the interior, from the occupations.

    A†A - B†B from sqrt(n_A)^2 - sqrt(n_B)^2, the Casimir root, and the
    mask of j >= 0.
    """
    root_a, root_b = np.sqrt(n_a), np.sqrt(n_b)
    return Bands.diag(root_a * root_a - root_b * root_b), _casimir_root(n_a, n_b), n_a >= n_b


def _mode_envelopes(n_max: int) -> tuple[Envelope, ...]:
    """L+, L-, A†A - B†B and the Casimir root as `Envelope`s, from the occupations' top n_max.

    sqrt(n_A n_B) <= n_max, |n_A - n_B| <= n_max and |j| <= n_max/2.
    """
    lp = Envelope({-1: float(n_max)})
    return lp, lp.adjoint(), Envelope({0: float(n_max)}), Envelope({0: n_max / 2.0})


def _dissipative_identities(p: DissipativeParams, lp, lm, modes, casimir, upper=None, keep=None):
    """The identities of `dissipative_residuals`, yielded one at a time in report order.

    A function of the ladders, of the mode difference A†A - B†B and of the
    Casimir root, over `Bands` with the masks j >= 0 (`upper`) and interior
    (`keep`), or over `Envelope`s, which need no mask.  H0 = Omega (A†A - B†B)
    and HI = i Gamma (L+ - L-).  The H0·HI commutator's products are the
    largest operators formed here, so each operator is dropped once the
    identity that reads it last is yielded: A†A - B†B, the Casimir root and
    the j >= 0 mask after h0_vs_casimir, and L+ and L- after hi_vs_l2, in
    whose residual alone L2 lives.
    """
    h0, hi = p.Omega * modes, 1j * p.Gamma * (lp - lm)
    yield Identity("h0_vs_casimir", lambda: h0 - 2.0 * p.Omega * casimir, upper)
    del modes, casimir, upper
    yield Identity("hi_vs_l2", lambda: hi - (-2.0 * p.Gamma) * _l2(lp, lm), keep)
    del lp, lm
    yield Identity("h0_hermiticity", lambda: h0 - h0.adjoint())
    yield Identity("hi_hermiticity", lambda: hi - hi.adjoint())
    yield Identity("h0_hi_commutator", lambda: h0.commutator(hi), keep)


def l2_relation_check(n_max: int) -> dict[str, float]:
    """Residuals of [L1, L3] = -i L2 and [L1, [L1, L3]] = -L3 on the interior, by name.

    The names are l2_commutator and l2_double_commutator.  These two
    relations are the infinitesimal content of the finite rotation
    i e^{(pi/2) L1} L3 e^{-(pi/2) L1} = L2 (the double commutator closing on
    -L3 makes the adjoint orbit a rotation, evaluated at angle pi/2).  The
    interior is every state with both occupations below n_max, which needs
    n_max >= 2.
    """
    if n_max < 2:
        raise ValueError("the L2 relations need n_max >= 2")
    return evaluate(_sweep(n_max, _l2_identities))


def _l2_identities(n_a, n_b, keep, l3, lp, lm):
    """The two identities of `l2_relation_check`, yielded one at a time.

    l2_commutator forms L1 and L2 from L+ and L- within its residual, L2 last,
    so neither is held past it; L2 has no other reader.  L1 is then formed
    again for l2_double_commutator, and L+ and L- are dropped.
    """
    del n_a, n_b
    yield Identity("l2_commutator", lambda: (
        _l1(lp, lm).commutator(l3) + 1j * _l2(lp, lm)), keep)
    l1 = _l1(lp, lm)
    del lp, lm
    yield Identity("l2_double_commutator", lambda: l1.commutator(l1.commutator(l3)) + l3, keep)
