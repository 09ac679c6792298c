"""Discrete-time cyclic evolution operator and its spectrum.

One time step of the N-state cyclic system is the permutation |v> -> |v+1 mod N>
multiplied by the phase e^{-i pi/N}, inserted by hand.  That step operator is
a circulant, so it is held as what a circulant is, its first column.  The
permutation is diagonalized by the discrete Fourier transform; the phase
shifts every eigenphase by half a level spacing, which is exactly the
zero-point term: the energies come out as (n + 1/2) omega with
omega = 2 pi / (N tau).  With that phase the N-th power of the step operator
is -1 times the identity (the permutation alone has order N), a period-wide
phase invisible in the level spacing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checked_count, finite


@dataclass(frozen=True)
class EvolutionParams:
    """Number of states N >= 2 and time step tau > 0; omega = 2 pi/(N tau)."""

    n_states: int
    tau: float

    def __post_init__(self) -> None:
        n_states = checked_count(self.n_states, "n_states", 2, "n_states must be an integer >= 2")
        if not (finite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "tau", float(self.tau))
        # the energies run up to N omega = 2 pi / tau; a zero omega divides them in omega units
        omega = self.omega
        if not (omega > 0.0 and math.isfinite(self.n_states * omega)):
            raise ValueError(f"omega = 2 pi/(N tau) = {omega!r} puts the energies beyond "
                             "the float range")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / (self.n_states * self.tau)


def build_evolution_operator(p: EvolutionParams) -> np.ndarray:
    """U = e^{-i pi/N} P with P the one-step cyclic shift, as its first column; unitary.

    Entry convention: U[(v+1) mod N, v] carries the phase for every v, so U
    is the circulant whose first column holds e^{-i pi/N} at row 1 and zeros
    elsewhere: N complex entries, circulant by construction.
    """
    column = np.zeros(p.n_states, dtype=complex)
    column[1] = np.exp(-1j * math.pi / p.n_states)
    return column


def _finite_column(p: EvolutionParams) -> np.ndarray:
    """U's first column, refused if an entry is not finite (construction bug)."""
    column = build_evolution_operator(p)
    if not np.isfinite(column).all():
        raise ValueError("the step operator has a non-finite entry")
    return column


def spectrum_via_dft(p: EvolutionParams) -> np.ndarray:
    """Energies (n + 1/2) omega extracted by Fourier-diagonalizing the step operator.

    The DFT diagonalizes exactly the circulant matrices, with the FFT of the
    first column as eigenvalues (Gray, "Toeplitz and Circulant Matrices: A
    Review", sec. 3).  U is held as that column, so it is circulant by
    construction; a non-finite entry is refused before the FFT
    (`_finite_column`).  Eigenphases are unwrapped with arg taken in
    (-2 pi, 0] via n = round((-arg * N/pi - 1)/2), and the levels must be
    0 .. N-1 once sorted; any collision signals a construction bug.
    Returns the energies, those sorted levels times omega: an ascending
    float64 array.  The column is dropped once its FFT is formed, and the
    eigenvalues once their arguments are, so at most two N-length complex
    arrays are held at a time.
    """
    n = p.n_states
    args = np.angle(np.fft.fft(_finite_column(p)))
    args = np.where(args > 0, args - 2.0 * math.pi, args)
    levels = np.sort(np.rint((-args * n / math.pi - 1.0) / 2.0).astype(int))
    if not np.array_equal(levels, np.arange(n)):
        raise ValueError("eigenphase unwrapping produced colliding levels")
    return (levels + 0.5) * p.omega


def _entry_product(a: complex, b: complex) -> complex:
    # one entry of a product of phased shifts, as `Bands.__matmul__` forms it:
    # each part by `operators._times`' formula, added to its 0.0 accumulator
    return complex(0.0 + (a.real * b.real - a.imag * b.imag),
                   0.0 + (a.real * b.imag + a.imag * b.real))


def geometric_phase_check(p: EvolutionParams) -> complex:
    """Scalar phi with U^N = phi * 1; the phase factor makes phi = -1.

    U's first column (`_finite_column`, which refuses a non-finite entry)
    must hold exactly one nonzero entry c.  Then U = c P^s is a phased
    cyclic shift, and U^N = c^N P^(sN) = c^N * 1 exactly, since P^N = 1.
    c^N comes from binary squaring of c, in the multiplication order of
    `numpy.linalg.matrix_power`, each product rounded as the band product
    (`operators.Bands`) rounds the entries of a power of U, so phi has the
    bits of the diagonal of U^N formed as a matrix.  Raises if U is not a
    phased cyclic shift (construction bug).
    """
    column = _finite_column(p)
    entries = column[np.flatnonzero(column)]
    if len(entries) != 1:
        raise ValueError("the step operator is not a phased cyclic shift")
    square = complex(entries[0])
    power = None
    remaining = p.n_states
    while True:
        remaining, bit = divmod(remaining, 2)
        if bit:
            power = square if power is None else _entry_product(power, square)
        if not remaining:
            break
        square = _entry_product(square, square)
    return power
