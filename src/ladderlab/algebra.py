"""Exact ladder-operator representations on explicit bases.

Three families are built here: the spin algebra su(2) at half-integer l
(dimension 2l + 1, exact), the positive discrete series of su(1,1) at
half-integer weight k >= 1/2 (infinite-dimensional, hard-truncated at a
caller-chosen cutoff), and the oscillator algebra h(1) (likewise truncated).

Basis convention: index n = 0 .. dim-1 labels the ladder state |n>, lowest
weight first.  For su(2) this means n = m + l.  The raising operator lives on
the first subdiagonal (row n+1, column n) with real nonnegative elements and
the lowering operator is its exact adjoint.  For the truncated families every
defining relation holds exactly except through matrix elements that touch the
top basis state, so identity checks take an explicit `interior` size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import EXACT_INTEGER_CEILING, checked_count, finite
from .operators import Bands, Envelope, Identity, OperatorMatrix, evaluate, in_float_range


def _validate_half_integer(value: float, name: str) -> float:
    """`value` as a float, if it is a half-integer >= 1/2 whose double is finite."""
    doubled = 2.0 * value if finite(value) else math.inf
    if not math.isfinite(doubled):
        raise ValueError(f"{name} must be a half-integer >= 1/2 with 2{name} finite, "
                         f"got {value!r}")
    value = float(value)
    if doubled != round(doubled) or value < 0.5:
        raise ValueError(f"{name} must be a half-integer >= 1/2")
    return value


@dataclass(frozen=True)
class Su2:
    """Spin label l; the representation has dimension 2l + 1."""

    l: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", _validate_half_integer(self.l, "l"))


@dataclass(frozen=True)
class Su11:
    """Discrete-series weight k; the L3 spectrum is {k, k+1, k+2, ...}."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _validate_half_integer(self.k, "k"))


@dataclass(frozen=True)
class Heisenberg:
    """Oscillator algebra; carries no representation label."""


AlgebraKind = Su2 | Su11 | Heisenberg


@dataclass(frozen=True, eq=False)
class LadderRep:
    """A ladder triple (L3, L+, L-) over the basis |0> .. |dim-1>.

    L3 is real diagonal, L+ strictly subdiagonal with nonnegative elements,
    and L- the exact entrywise adjoint of L+.  For the Heisenberg kind the
    slots hold (N + 1/2, a†, a): the number operator is shifted by 1/2 so
    that the diagonal of L3 is the oscillator spectrum n + 1/2 in units of
    the mode frequency.
    """

    kind: AlgebraKind
    dim: int
    L3: OperatorMatrix
    Lplus: OperatorMatrix
    Lminus: OperatorMatrix


def _ladder_rep(kind: AlgebraKind, diagonal: np.ndarray, raising: np.ndarray) -> LadderRep:
    """L3 = diag(diagonal), L+ = `raising` on the first subdiagonal, L- = (L+)^T."""
    dim = len(diagonal)
    # <n+1|L+|n> is row n + 1 of the diagonal at offset -1
    lp = Bands(dim, {-1: np.concatenate(([0.0], raising))})
    return LadderRep(
        kind=kind,
        dim=dim,
        L3=OperatorMatrix("L3", Bands.diag(diagonal)),
        Lplus=OperatorMatrix("L+", lp),
        Lminus=OperatorMatrix("L-", lp.adjoint()),
    )


def su2_elements(l, n) -> tuple[np.ndarray, np.ndarray]:
    """(<n|L3|n>, <n+1|L+|n>) of the spin-l irrep; broadcasts over l and n."""
    return n - l, np.sqrt((2.0 * l - n) * (n + 1.0))


def su2_dim(l: float) -> int:
    """2l + 1, the dimension of the spin-l irrep."""
    return int(round(2 * Su2(l).l)) + 1


def build_su2_rep(l: float) -> LadderRep:
    """Spin-l ladder matrices.

    <n+1|L+|n> = sqrt((2l - n)(n + 1)) and <n|L3|n> = n - l, so the L3
    eigenvalues run through m = -l .. l and the top state is annihilated
    by L+.  All three defining relations hold exactly.  The 2l + 1 levels
    are floats, so at most 2^53 of them are built.
    """
    dim = checked_count(su2_dim(l), "l", 1, ceiling=EXACT_INTEGER_CEILING,
                        above=f"2l + 1 must be <= {EXACT_INTEGER_CEILING}, got l = {l!r}")
    return _leading_su2(l, dim)


def _leading_su2(l: float, levels: int) -> LadderRep:
    """The leading min(levels, 2l + 1) states of the spin-l irrep, from `su2_elements`.

    Cut below 2l + 1 it is no complete irrep, so only `build_su2_rep` and the
    contraction sweep, which reads the leading entries alone, call it.
    """
    kind = Su2(l)
    levels = min(levels, su2_dim(kind.l))
    diagonal, raising = su2_elements(kind.l, np.arange(levels, dtype=float))
    return _ladder_rep(kind, diagonal, raising[:-1])


def discrete_series_elements(k, n) -> tuple[np.ndarray, np.ndarray]:
    """(<n|L3|n>, <n+1|L+|n>) of the weight-k discrete series; broadcasts over k and n."""
    return n + k, np.sqrt((n + 2.0 * k) * (n + 1.0))


def build_su11_rep(k: float, dim: int) -> LadderRep:
    """Discrete-series ladder matrices at weight k, truncated at `dim` states.

    <n+1|L+|n> = sqrt((n + 2k)(n + 1)) and <n|L3|n> = n + k.  At k = 1/2 the
    ladder elements are the integers n + 1 (no square roots).  The defining
    relations hold exactly on the interior span |0> .. |dim-2>; the top row
    is truncation-contaminated.  The levels are floats, so `dim` is at most
    2^53.
    """
    kind = Su11(k)
    dim = checked_count(dim, "dim", 2, "dim must be at least 2", EXACT_INTEGER_CEILING)
    diagonal, raising = discrete_series_elements(kind.k, np.arange(dim, dtype=float))
    return _ladder_rep(kind, diagonal, raising[:-1])


def build_h1_rep(dim: int) -> LadderRep:
    """Truncated oscillator ladders: <n+1|a†|n> = sqrt(n + 1).

    The L3 slot stores N + 1/2 = diag(n + 1/2), so the Hamiltonian in units
    of the mode frequency is the L3 matrix itself.  [a, a†] = 1 holds exactly
    on the interior span |0> .. |dim-2>.  The levels are floats, so `dim`
    is at most 2^53.
    """
    dim = checked_count(dim, "dim", 2, "dim must be at least 2", EXACT_INTEGER_CEILING)
    n = np.arange(dim - 1, dtype=float)
    return _ladder_rep(Heisenberg(), np.arange(dim, dtype=float) + 0.5, np.sqrt(n + 1.0))


def _l1(lp, lm):
    """L1 = (L+ + L-)/2, over `Bands` or `Envelope`s."""
    return (lp + lm) / 2.0


def _l2(lp, lm):
    """L2 = (L+ - L-)/(2i), over `Bands` or `Envelope`s; over real `Bands`, flagged imaginary."""
    return (lp - lm) / 2.0j


def check_algebra_relations(rep: LadderRep, interior: int) -> dict[str, float]:
    """{"relations_residual": max-entry residual of the defining relations}, on `interior` states.

    Both sides of every identity are restricted to the span of
    |0> .. |interior-1>, the mask of each record (`_relations`), which
    excises the truncation-contaminated top row of the su(1,1)/h(1)
    matrices.  An su(1,1) rep is first run through `relations_in_float_range`.
    """
    span = f"interior must be in 1..{rep.dim}"
    interior = checked_count(interior, "interior", 1, span, rep.dim, span)
    if isinstance(rep.kind, Su11):
        relations_in_float_range(rep.kind, rep.dim)
    # only the h(1) relation reads the identity
    one = Bands.identity(rep.dim) if isinstance(rep.kind, Heisenberg) else None
    return evaluate(_relations(rep.kind, rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands, one,
                               np.arange(rep.dim) < interior))


def relations_in_float_range(kind: Su2 | Su11, dim: int) -> None:
    """Raise unless the relation checks of the `kind` ladders on `dim` states stay in float range.

    Their table runs over `_ladder_envelopes`, at a cost that does not grow
    with `dim`, before anything is built; `dim` is read as `build_su11_rep`
    reads it.
    """
    dim = checked_count(dim, "dim", 2, "dim must be at least 2", EXACT_INTEGER_CEILING)
    if not in_float_range(_relations(kind, *_ladder_envelopes(kind, dim))):
        label = f"l = {kind.l!r}" if isinstance(kind, Su2) else f"k = {kind.k!r}"
        raise ValueError(f"{label} at dim {dim} puts the relation checks beyond the float range")


def _relations(kind: AlgebraKind, l3, lp, lm, one, keep=None) -> list[Identity]:
    """The defining relations of `kind`, over `Bands` read on `keep`, or over `Envelope`s.

    su(2) closes with [L+, L-] = +2 L3, su(1,1) with -2 L3, and h(1) with
    [a, a†] = 1; the two [L3, L±] = ±L± relations hold for every kind.
    """
    if isinstance(kind, Heisenberg):
        closing = Identity("relations_residual", lambda: lm.commutator(lp) - one, keep)
    else:
        sign = 2.0 if isinstance(kind, Su2) else -2.0
        closing = Identity("relations_residual", lambda: lp.commutator(lm) - sign * l3, keep)
    return [
        Identity("relations_residual", lambda: l3.commutator(lp) - lp, keep),
        Identity("relations_residual", lambda: l3.commutator(lm) + lm, keep),
        closing,
    ]


def _ladder_envelopes(kind: Su2 | Su11, dim: int | None = None) -> tuple[Envelope, ...]:
    """L3, L+, L- and 1 of the `kind` ladders as `Envelope`s, each from its largest entry.

    su(2): |n - l| <= l, and sqrt((2l - n)(n + 1)) <= l + 1/2 by the mean of
    its two factors.  The discrete series cut at `dim` states: its top
    elements, L3 at n = dim - 1 and L+- at n = dim - 2.
    """
    if isinstance(kind, Su2):
        top, step = kind.l, kind.l + 0.5
    else:
        top = discrete_series_elements(kind.k, dim - 1.0)[0]
        step = float(discrete_series_elements(kind.k, dim - 2.0)[1])
    lp = Envelope({-1: step})
    return Envelope({0: top}), lp, lp.adjoint(), Envelope({0: 1.0})
