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

from . import checked_count
from .operators import Bands, OperatorMatrix


@dataclass(frozen=True)
class EvolutionParams:
    """Number of states N >= 2 and time step tau > 0; omega = 2 pi/(N tau)."""

    n_states: int
    tau: float

    def __post_init__(self) -> None:
        n_states = checked_count(self.n_states, "n_states", 2, "n_states must be an integer >= 2")
        if not (math.isfinite(self.tau) and self.tau > 0):
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


def _circulant_column(bands: Bands) -> np.ndarray:
    """The first column of `bands`, once the matrix is checked to be exactly circulant.

    Offset o lies on cyclic diagonal (-o) mod N.  One stored diagonal at a
    time, each nonzero entry must equal the first-column entry of its cyclic
    diagonal, and there must be N stored nonzeros per nonzero of the column;
    a nan equals nothing, so it fails.
    """
    n = bands.dim
    # the first-column entry M[r, 0] sits at row r of offset -r
    column = np.zeros(n, dtype=complex)
    for offset, values in bands.diagonals.items():
        if -n < offset <= 0:
            column[-offset] = values[-offset]
    stored = 0
    for offset, values in bands.diagonals.items():
        count = np.count_nonzero(values)
        entry = column[-offset % n]
        # entries equal to a nonzero `entry` are a subset of the nonzeros,
        # so equal counts mean every nonzero equals it
        if count and (entry == 0 or np.count_nonzero(values == entry) != count):
            raise ValueError("the step operator is not circulant")
        stored += count
    if stored != n * np.count_nonzero(column):
        raise ValueError("the step operator is not circulant")
    return column


def spectrum_via_dft(p: EvolutionParams) -> np.ndarray:
    """Energies (n + 1/2) omega extracted by Fourier-diagonalizing the step operator.

    The DFT diagonalizes exactly the circulant matrices, with the FFT of the
    first column as eigenvalues (Gray, "Toeplitz and Circulant Matrices: A
    Review", sec. 3).  So U is checked to be circulant, exactly, one stored
    diagonal at a time (`_circulant_column`).  Eigenphases are unwrapped
    with arg taken in (-2 pi, 0] via n = round((-arg * N/pi - 1)/2), and the
    levels must be 0 .. N-1 once sorted; any collision signals a
    construction bug.  Returns the energies, those sorted levels times
    omega: an ascending float64 array.  U, its first column and the
    eigenvalues are each dropped after their last use.
    """
    n = p.n_states
    args = np.angle(np.fft.fft(_circulant_column(build_evolution_operator(p).bands)))
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

    U is read as a circulant (`_circulant_column`) whose first column must
    hold exactly one nonzero entry c.  Then U = c P^s is a phased cyclic
    shift, and U^N = c^N P^(sN) = c^N * 1 exactly, since P^N = 1.  c^N comes
    from binary squaring of c, in the multiplication order of
    `numpy.linalg.matrix_power`, each product rounded as the band product
    rounds the entries of a power of U, so phi has the bits of the diagonal
    of U^N formed as a matrix.  Raises if U is not a phased cyclic shift
    (construction bug).
    """
    column = _circulant_column(build_evolution_operator(p).bands)
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
