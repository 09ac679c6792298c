"""Contraction of the ladder algebras onto the oscillator algebra.

The scaled ladders a = L-/sqrt(2l) (su(2)) or L-/sqrt(2k) (su(1,1)) approach
canonical bosons as the representation label grows; the deviation
||([a, a†] - 1)|n>|| has the closed forms n/l and n/k, which this module both
measures and sweeps.  The weight-1/2 discrete series additionally admits an
exact nonlinear boson mapping a = (L3 + 1/2)^(-1/2) L- that needs no limit at
all.  The spin representation carries deformed position/momentum operators
x = alpha*L1, p = beta*L2 whose algebra closes on the Hamiltonian; both
operator identities are verified here as matrix residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import EXACT_INTEGER_CEILING, checked_count, finite
from .algebra import (
    LadderRep,
    Su2,
    Su11,
    _cartesian,
    _ladder_envelopes,
    _leading_su2,
    build_su11_rep,
)
from .operators import Bands, Identity, OperatorMatrix, evaluate, in_float_range


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Deviation table of a contraction sweep plus its fitted decay rate.

    `deviations[i, n]` holds ||([a, a†] - 1)|n>|| for the representation built
    at `params[i]`.  The log-log least-squares fit of deviation against the
    sweep parameter is taken at fixed n = fit_n (the largest tabulated n);
    fits with fewer than three points are rejected and reported as NaN.
    """

    params: tuple[float, ...]
    interior: int
    deviations: np.ndarray
    fit_n: int
    fitted_slope: float
    fit_residual: float


def scaled_ladders(rep: LadderRep) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Ladders divided by sqrt(2l) or sqrt(2k), the contraction normalization."""
    if isinstance(rep.kind, Su2):
        scale = math.sqrt(2.0 * rep.kind.l)
    elif isinstance(rep.kind, Su11):
        scale = math.sqrt(2.0 * rep.kind.k)
    else:
        raise ValueError("rep is an oscillator ladder, already canonical; nothing to scale")
    return (
        OperatorMatrix("a", rep.Lminus.bands / scale),
        OperatorMatrix("adag", rep.Lplus.bands / scale),
    )


def _deviations(rep: LadderRep) -> np.ndarray:
    """||([a, a†] - 1)|n>|| for every n, from one commutator of the scaled ladders.

    a and a† are single diagonals at offsets +1 and -1, so [a, a†] is
    diagonal and column n of [a, a†] - 1 holds only its diagonal entry n.
    """
    a, adag = (op.bands for op in scaled_ladders(rep))
    defect = (a.commutator(adag) - Bands.identity(rep.dim)).diagonal()
    return np.sqrt(np.abs(defect) ** 2)  # the column's 2-norm, formed as np.linalg.norm does


def run_contraction_study(family: str, params, interior: int) -> ContractionReport:
    """Sweep the representation label and tabulate contraction deviations.

    `interior` is the number of ladder states tabulated (n = 0 .. interior-1).
    Each label gets the leading interior + 1 states only, so memory does not
    grow with the label: for su(1,1) that cutoff makes every tabulated n
    interior, and an su(2) irrep is cut to it as well, which leaves entries
    0 .. interior-1 of the commutator unchanged; the su(2) label itself must
    still give interior <= 2l + 1 states.
    """
    if family not in ("su2", "su11"):
        raise ValueError("family must be 'su2' or 'su11'")
    if not all(finite(p) for p in params):
        raise ValueError("params must be finite")
    params = tuple(float(p) for p in params)
    if not params:
        raise ValueError("params must not be empty")
    if not all(a < b for a, b in zip(params, params[1:])):
        raise ValueError("params must be strictly ascending")
    # each label is built on interior + 1 float levels
    interior = checked_count(interior, "interior", 2, "interior must be at least 2",
                             EXACT_INTEGER_CEILING - 1)

    rows = []
    for p in params:
        if family == "su2":
            rep = _leading_su2(p, interior + 1)
            if interior > rep.dim:
                raise ValueError(f"interior {interior} exceeds the l={p} representation")
        else:
            rep = build_su11_rep(p, interior + 1)
        rows.append(_deviations(rep)[:interior])
    deviations = np.array(rows)

    fit_n = interior - 1
    if len(params) >= 3:
        x = np.log(np.array(params))
        y = np.log(deviations[:, fit_n])
        slope, intercept = np.polyfit(x, y, 1)
        fit_residual = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
        fitted_slope = float(slope)
    else:
        fitted_slope = math.nan
        fit_residual = math.nan

    return ContractionReport(
        params=params,
        interior=interior,
        deviations=deviations,
        fit_n=fit_n,
        fitted_slope=fitted_slope,
        fit_residual=fit_residual,
    )


def holstein_primakoff(rep: LadderRep) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Nonlinear boson mapping a = (L3 + 1/2)^(-1/2) L- on the weight-1/2 series.

    The diagonal function f = (L3 + 1/2)^(-1/2) composes with the integer
    ladder elements of k = 1/2 to give exactly the canonical sqrt(n + 1)
    elements, so the output coincides entrywise with `build_h1_rep(rep.dim)`
    with no limit taken.
    """
    if not (isinstance(rep.kind, Su11) and rep.kind.k == 0.5):
        raise ValueError("rep must be the k = 1/2 discrete series")
    if rep.dim < 2:
        raise ValueError("dim must be at least 2")
    shifted = rep.L3.bands.diagonal().real + 0.5
    if np.any(shifted <= 0):
        raise ValueError("L3 + 1/2 must be positive definite")
    f = Bands.diag(1.0 / np.sqrt(shifted))
    a = OperatorMatrix("a", f @ rep.Lminus.bands)
    adag = OperatorMatrix("adag", rep.Lplus.bands @ f)
    return a, adag


def holstein_primakoff_deviation(a: OperatorMatrix, adag: OperatorMatrix,
                                 oscillator: LadderRep) -> dict[str, float]:
    """{"hp_max_deviation": the largest |entry| of a - L- and a† - L+ of the `oscillator`}."""
    return evaluate(_holstein_primakoff_identities(a.bands, adag.bands, oscillator.Lminus.bands,
                                                   oscillator.Lplus.bands))


def _holstein_primakoff_identities(a, adag, lm, lp) -> list[Identity]:
    """The mapped a and a† against the oscillator's L- and L+, over `Bands` or `Envelope`s."""
    return [Identity("hp_max_deviation", lambda: a - lm),
            Identity("hp_max_deviation", lambda: adag - lp)]


def _scales(l: float, tau: float) -> tuple[float, float, float]:
    """alpha = sqrt(tau/pi), beta = -2/(2l+1) sqrt(pi/tau) and omega = 2 pi/((2l+1) tau)."""
    width = 2.0 * l + 1.0
    return (math.sqrt(tau / math.pi), -2.0 / width * math.sqrt(math.pi / tau),
            2.0 * math.pi / (width * tau))


def deformed_identity_residuals(rep: LadderRep, tau: float) -> dict[str, float]:
    """Residuals of both deformed identities by name, `deformed_commutator` first.

    rep must be su(2), and `deformed_identities_in_float_range` runs first;
    x, p and H are built once for the two (`_deformed_identities`).
    """
    if not isinstance(rep.kind, Su2):
        raise ValueError("the deformed x, p and H live on the su(2) representation")
    deformed_identities_in_float_range(rep.kind.l, tau)
    return evaluate(_deformed_identities(rep.kind.l, tau, _scales(rep.kind.l, tau),
                                         rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands,
                                         Bands.identity(rep.dim)))


def deformed_identities_in_float_range(l: float, tau: float) -> None:
    """Raise unless both deformed identities of spin l at time step tau stay in the float range.

    tau must be positive and finite, and omega = 2 pi/((2l + 1) tau) above
    0; then their table runs over the su(2) `_ladder_envelopes`, at a cost
    that does not grow with l, before anything is built.
    """
    kind = Su2(l)
    if not (finite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    scales = _scales(kind.l, tau)
    if not (scales[2] > 0 and in_float_range(_deformed_identities(
            kind.l, tau, scales, *_ladder_envelopes(kind)))):
        raise ValueError(f"l = {kind.l!r} at tau {tau!r} puts the identity checks beyond the "
                         "float range")


def _deformed_operators(l: float, scales, l3, lp, lm, one) -> tuple:
    """x = alpha L1, p = beta L2 and H = omega (L3 + l + 1/2) of spin l, over `Bands` or `Envelope`s.

    `scales` are (alpha, beta, omega) of `_scales`.  x and p are hermitian;
    only the product alpha*beta = -2/(2l+1) enters the commutator
    identities, so the sign convention is observable solely through the
    overall sign of p.  The shift by l + 1/2 moves the L3 spectrum
    m = -l .. l onto n + 1/2, the cyclic-evolution energy ladder.
    """
    alpha, beta, omega = scales
    l1, l2 = _cartesian(lp, lm)
    return alpha * l1, beta * l2, omega * (l3 + (l + 0.5) * one)


def _deformed_identities(l: float, tau: float, scales, l3, lp, lm, one) -> list[Identity]:
    """The deformed commutator and the Hamiltonian identity of spin l, over `Bands` or `Envelope`s.

    x, p and H are formed once for both identities (`_deformed_operators`).
    [x, p] = i (1 - (tau/pi) H) and
    H = (1/2) omega^2 x^2 + (1/2) p^2 + (tau/2pi)(omega^2/4 + H^2) are both
    exact on the irrep: the quadratic terms reduce through the Casimir
    L1^2 + L2^2 = l(l+1) - L3^2, and the correction term vanishes in the
    contraction limit on states of bounded energy.
    """
    omega = scales[2]
    x, p, h = _deformed_operators(l, scales, l3, lp, lm, one)
    return [
        Identity("deformed_commutator",
                 lambda: x.commutator(p) - 1j * (one - (tau / math.pi) * h)),
        Identity("hamiltonian_decomposition", lambda: h - (
            0.5 * omega**2 * (x @ x)
            + 0.5 * (p @ p)
            + (tau / (2.0 * math.pi)) * (omega**2 / 4.0 * one + h @ h)
        )),
    ]
