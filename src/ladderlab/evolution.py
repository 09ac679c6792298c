"""Discrete-time cyclic evolution operator and its spectrum.

One time step of the N-state cyclic system is the permutation |v> -> |v+1 mod N>
multiplied by the phase e^{-i pi/N}, inserted by hand.  The permutation is
diagonalized by the discrete Fourier transform; the phase shifts every
eigenphase by half a level spacing, which is exactly the zero-point term: the
energies come out as (n + 1/2) omega with omega = 2 pi / (N tau).  With that
phase the N-th power of the step operator is -1 times the identity (the
permutation alone has order N), a period-wide phase invisible in the level
spacing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Bands, OperatorMatrix, Spectrum, max_entry


@dataclass(frozen=True)
class EvolutionParams:
    """Number of states N >= 2 and time step tau > 0; omega = 2 pi/(N tau)."""

    n_states: int
    tau: float

    def __post_init__(self) -> None:
        if int(self.n_states) != self.n_states or self.n_states < 2:
            raise ValueError("n_states must be an integer >= 2")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        object.__setattr__(self, "n_states", int(self.n_states))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / (self.n_states * self.tau)


def build_evolution_operator(p: EvolutionParams) -> OperatorMatrix:
    """U = e^{-i pi/N} P with P the one-step cyclic shift; unitary.

    Entry convention: U[(v+1) mod N, v] carries the phase, i.e. phases below the
    diagonal plus the top-right corner: two diagonals, at offsets -1 and N - 1.
    """
    n = p.n_states
    phase = np.exp(-1j * math.pi / n)
    below = np.full(n, phase)
    below[0] = 0.0
    corner = np.zeros(n, dtype=complex)
    corner[0] = phase
    return OperatorMatrix("U", Bands(n, {-1: below, n - 1: corner}))


def spectrum_via_dft(p: EvolutionParams) -> Spectrum:
    """Energies (n + 1/2) omega extracted by Fourier-diagonalizing the step operator.

    The DFT diagonalizes exactly the circulant matrices, with the FFT of the
    first column as eigenvalues (Gray, "Toeplitz and Circulant Matrices: A
    Review", sec. 3).  So U is checked to be circulant, exactly: each stored
    entry equals the first-column entry on its cyclic diagonal, and there are
    N stored entries per nonzero of that column.  Eigenphases are unwrapped
    with arg taken in (-2 pi, 0] via n = round((-arg * N/pi - 1)/2); any
    collision signals a construction bug.  Returned energies are sorted
    ascending.
    """
    n = p.n_states
    rows, cols, values = build_evolution_operator(p).bands.nonzero()
    diagonal = (rows - cols) % n
    column = np.zeros(n, dtype=complex)
    first = cols == 0
    column[diagonal[first]] = values[first]
    if len(values) != n * np.count_nonzero(column) or np.any(values != column[diagonal]):
        raise ValueError("the DFT failed to diagonalize the evolution operator")
    eigenvalues = np.fft.fft(column)
    args = np.angle(eigenvalues)
    args = np.where(args > 0, args - 2.0 * math.pi, args)
    levels = np.rint((-args * n / math.pi - 1.0) / 2.0).astype(int)
    if sorted(levels) != list(range(n)):
        raise ValueError("eigenphase unwrapping produced colliding levels")
    energies = (levels + 0.5) * p.omega
    return Spectrum.from_eigenvalues(energies, hermitian_tol=1e-12)


def geometric_phase_check(p: EvolutionParams) -> complex:
    """Scalar phi with U^N = phi * 1; the phase factor makes phi = -1.

    U^N comes from binary squaring of U, in the multiplication order of
    `numpy.linalg.matrix_power`; every power of U is a phased shift on two
    diagonals, so each product costs O(N).
    Raises if U^N is not proportional to the identity (construction bug).
    """
    n = p.n_states
    u = build_evolution_operator(p).bands
    square = power = None
    remaining = n
    while remaining > 0:
        square = u if square is None else square @ square
        remaining, bit = divmod(remaining, 2)
        if bit:
            power = square if power is None else power @ square
    phi = complex(power.diagonal()[0])
    if not max_entry(power - phi * Bands.identity(n)) <= 1e-12:
        raise ValueError("U^N is not proportional to the identity")
    return phi
