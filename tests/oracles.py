"""Reference implementations that only the tests use.

The library keeps every operator as its diagonals (`operators.Bands`); dense
matrices live here alone.  `dense` is the tests' one dense view of an
operator, `diagonals` their one reader of its stored values as the matrix
holds them (i times the values of a `Bands` flagged imaginary), and `from_dense` and `bands_from_entries` build one from a dense
array or from its entries.  The library never holds the whole two-mode
space; `build_two_mode` builds it here as one run of every sector, from the
library's own occupations and ladders, so that the runs the checks sweep
can be compared with it.  The flat two-mode build, on the index
n_A (n_max + 1) + n_B, is `dense_two_mode`; `sector_order` gives the
library's sector order from a scan of that basis, and `in_sector_order`
permutes a flat matrix into it.  `l2_finite_residual` is the finite-rotation
diagnostic, which the library does not form: a Taylor exponential per su(1,1)
sector, each sliced by `space_sector` from the operators of the space it is
given.  The CSR view and the scipy matrix exponential check the band store
and that diagnostic against independent arithmetic, the
object-integer touch angles check the closed orbits, the dense ladders of
the whole su(2) irrep check the contraction sweep, which builds only its
leading levels, and `dense_cartesian` forms L1 and L2 from the dense L+-;
`scalar_power` is the phase chain that the band powers of the step operator
form entry by entry, `evolution_bands` is that operator in the band form the
library once held, and `circulant_column` the exact scan that read its first
column back, which `band_spectrum` and `band_phase` follow to the energies
and the phase; `Bounded` runs an identity table over `Bands` and their
`Envelope`s at once, checking each operator the table forms against its
bound; the raising wrappers and small helpers give tests dense and gated
forms of the library's residuals; `rows` reads a writer result row by row,
as the writer's byte oracle formats it.  scipy is imported here and
nowhere in the package.
"""

import itertools
import tracemalloc
from dataclasses import dataclass
from math import ceil, log2, pi, sqrt

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from ladderlab import twomode
from ladderlab.algebra import LadderRep, Su11, build_su2_rep
from ladderlab.evolution import EvolutionParams
from ladderlab.operators import Bands, Envelope, OperatorMatrix, evaluate, max_entry
from ladderlab.twomode import DissipativeParams
from ladderlab.writer import Arange, CommandResult, Periodic


def diagonals(bands: Bands) -> dict[int, np.ndarray]:
    """{offset: values} of the matrix a `Bands` holds: i times its values where it is flagged.

    The tests' one reader of stored values whose meaning the `imaginary`
    flag changes; a reader of magnitudes, offsets or finiteness alone may
    read `Bands.diagonals` as stored.
    """
    return bands._complex().diagonals


def dense(x: OperatorMatrix | Bands) -> np.ndarray:
    """Read-only dense complex copy of an operator or a `Bands`, for small sizes.

    Built from the definition M[i, i + offset] = values[i], on the rows where
    i + offset lies inside the matrix.
    """
    bands = x.bands if isinstance(x, OperatorMatrix) else x
    m = np.zeros((bands.dim, bands.dim), dtype=complex)
    rows = np.arange(bands.dim)
    for offset, values in diagonals(bands).items():
        inside = (rows + offset >= 0) & (rows + offset < bands.dim)
        m[rows[inside], rows[inside] + offset] = values[inside]
    m.setflags(write=False)
    return m


def bands_from_entries(dim: int, rows, cols, values) -> Bands:
    """The matrix with values[t] at (rows[t], cols[t]); the positions must be distinct."""
    rows = np.asarray(rows, dtype=np.int64)
    values = np.asarray(values)
    values = values.astype(np.result_type(values, float))
    offsets = np.asarray(cols, dtype=np.int64) - rows
    order = np.argsort(offsets, kind="stable")
    offsets, rows, values = offsets[order], rows[order], values[order]
    distinct, starts = np.unique(offsets, return_index=True)
    diagonals = {}
    for offset, start, stop in zip(distinct.tolist(), starts, [*starts[1:], len(offsets)]):
        diagonal = np.zeros(dim, dtype=values.dtype)
        diagonal[rows[start:stop]] = values[start:stop]
        diagonals[offset] = diagonal
    return Bands(dim, diagonals)


def from_dense(label: str, m) -> OperatorMatrix:
    """The operator with the nonzero entries of the square array `m`; real input stays real."""
    m = np.asarray(m)
    rows, cols = np.nonzero(m)
    return OperatorMatrix(label, bands_from_entries(len(m), rows, cols, m[rows, cols]))


@dataclass(frozen=True, eq=False)
class TwoModeSpace:
    """The whole truncated two-oscillator space with its su(1,1) ladders.

    Basis |n_A, n_B> with 0 <= n_A, n_B <= n_max in the library's sector
    order; `n_a` and `n_b` hold each state's occupations as floats.  L+ sits
    on offset -1, L- on +1 and L3 on 0.
    """

    n_max: int
    n_a: np.ndarray
    n_b: np.ndarray
    L3: OperatorMatrix
    Lplus: OperatorMatrix
    Lminus: OperatorMatrix

    @property
    def dim(self) -> int:
        return len(self.n_a)

    @property
    def interior(self) -> np.ndarray:
        """The mask of the states with both occupations below n_max."""
        return (self.n_a < self.n_max) & (self.n_b < self.n_max)

    def index(self, n_a: int, n_b: int) -> int:
        found = np.flatnonzero((self.n_a == n_a) & (self.n_b == n_b))
        if len(found) != 1:
            raise ValueError("occupation out of range")
        return int(found[0])

    def occupations(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.dim:
            raise ValueError("basis index out of range")
        return int(self.n_a[index]), int(self.n_b[index])


def build_two_mode(n_max: int) -> TwoModeSpace:
    """Every sector of cutoff n_max as one run, from `twomode._occupations` and `_ladders`."""
    n_a, n_b = twomode._occupations(n_max, -n_max, n_max + 1)
    return TwoModeSpace(n_max, n_a, n_b, *map(OperatorMatrix, ("L3", "L+", "L-"),
                                              twomode._ladders(n_a, n_b)))


def whole_run(table, space: TwoModeSpace, *args) -> dict[str, float]:
    """`evaluate` of one of `twomode`'s identity tables over the space's own operators, as one run.

    A space whose operators a test has changed is read as it is, not rebuilt.
    """
    return evaluate(table(*args, space.n_a, space.n_b, space.interior, space.L3.bands,
                          space.Lplus.bands, space.Lminus.bands))


def identity_peaks(table, n_max: int, *args) -> list[tuple[int, list[int]]]:
    """(set-up peak, [peak of each residual]) of each run of `twomode._sweep(n_max, table, *args)`.

    Peaks are of all the memory tracemalloc traces, so each counts what the
    run holds beside what the step forms.  A run's set-up spans its
    occupations, ladders and interior mask and the table up to its first
    identity; each residual spans the table's step to that identity, the
    residual and its reduction by `max_entry`, as `evaluate` takes them.
    Each identity is dropped once reduced, so the next run's set-up starts
    once this run's generator has finished.
    """
    runs, occupations = [], twomode._occupations

    def started(*run):
        runs.append((0, []))
        tracemalloc.reset_peak()
        return occupations(*run)

    sweep = twomode._sweep(n_max, table, *args)
    twomode._occupations = started
    tracemalloc.start()
    try:
        for identity in sweep:
            if not runs[-1][1]:
                runs[-1] = (tracemalloc.get_traced_memory()[1], [])
                tracemalloc.reset_peak()
            max_entry(identity.residual(), identity.mask)
            runs[-1][1].append(tracemalloc.get_traced_memory()[1])
            del identity
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
        twomode._occupations = occupations
    return runs


def dense_two_mode(n_max: int) -> dict[str, np.ndarray]:
    """The mode operators and their ladder products, dense, on the index n_A (n_max + 1) + n_B.

    The library's two-mode basis is in sector order; `in_sector_order` permutes these into it.
    """
    cutoff = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1)
    eye = np.eye(cutoff)
    a, b = np.kron(lower, eye), np.kron(eye, lower)
    adag, bdag = a.T, b.T
    return {
        "A": a, "Adag": adag, "B": b, "Bdag": bdag,
        "Lplus": adag @ bdag, "Lminus": a @ b,
        "L3": 0.5 * (adag @ a + bdag @ b + np.eye(cutoff * cutoff)),
    }


def sector_order(n_max: int) -> np.ndarray:
    """The flat index of each state of the library's basis order, from a scan of the flat basis.

    The order is ascending j = (n_A - n_B)/2, then ascending n_A.
    """
    side = n_max + 1
    scan = sorted((n_a - n_b, n_a, n_a * side + n_b) for n_a in range(side) for n_b in range(side))
    return np.array([flat for _, _, flat in scan])


def in_sector_order(m: np.ndarray, n_max: int) -> np.ndarray:
    """A flat-index vector or square matrix, permuted into the sector order."""
    order = sector_order(n_max)
    return m[order] if m.ndim == 1 else m[np.ix_(order, order)]


def scalar_power(c: complex, n: int) -> complex:
    """c^n by binary squaring in `numpy.linalg.matrix_power` order.

    Each product is rounded as `Bands.__matmul__` rounds one entry of a
    product of phased shifts: every real product on its own, and each part
    added to the entry's 0.0 accumulator, so a zero part reads 0.0, never -0.0.
    """
    def times(a, b):
        return complex(0.0 + (a.real * b.real - a.imag * b.imag),
                       0.0 + (a.real * b.imag + a.imag * b.real))

    square = power = None
    while n > 0:
        square = c if square is None else times(square, square)
        n, bit = divmod(n, 2)
        if bit:
            power = square if power is None else times(power, square)
    return power


def evolution_bands(p: EvolutionParams) -> OperatorMatrix:
    """The step operator U = e^{-i pi/N} P in band form, as the library once stored it.

    U[(v+1) mod N, v] carries the phase: phases below the diagonal plus the
    top-right corner, two diagonals, at offsets -1 and N - 1.
    """
    n = p.n_states
    phase = np.exp(-1j * pi / n)
    below = np.full(n, phase)
    below[0] = 0.0
    corner = np.zeros(n, dtype=complex)
    corner[0] = phase
    return OperatorMatrix("U", Bands(n, {-1: below, n - 1: corner}))


def circulant_column(bands: Bands) -> np.ndarray:
    """The first column of `bands`, once the matrix is checked to be exactly circulant.

    Offset o lies on cyclic diagonal (-o) mod N.  One stored diagonal at a
    time, each nonzero entry must equal the first-column entry of its cyclic
    diagonal, and there must be N stored nonzeros per nonzero of the column;
    a nan equals nothing, so it fails.
    """
    n = bands.dim
    # the first-column entry M[r, 0] sits at row r of offset -r
    column = np.zeros(n, dtype=complex)
    for offset, values in diagonals(bands).items():
        if -n < offset <= 0:
            column[-offset] = values[-offset]
    stored = 0
    for offset, values in diagonals(bands).items():
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


def band_spectrum(p: EvolutionParams) -> np.ndarray:
    """`spectrum_via_dft` on the band form: the column scanned out of `evolution_bands`."""
    n = p.n_states
    args = np.angle(np.fft.fft(circulant_column(evolution_bands(p).bands)))
    args = np.where(args > 0, args - 2.0 * pi, args)
    levels = np.sort(np.rint((-args * n / pi - 1.0) / 2.0).astype(int))
    assert np.array_equal(levels, np.arange(n)), "colliding levels"
    return (levels + 0.5) * p.omega


def band_phase(p: EvolutionParams) -> complex:
    """`geometric_phase_check` on the band form: the scanned column's one entry to the N-th."""
    column = circulant_column(evolution_bands(p).bands)
    (entry,) = column[np.flatnonzero(column)]
    return scalar_power(complex(entry), p.n_states)



class Bounded:
    """A `Bands` with the `Envelope` that must bound it; arithmetic runs on both at once.

    Every result is checked as it is formed: each entry of its Bands lies
    within the envelope's bound on its diagonal, and for a product so does
    each entry of |A| |B|, which bounds every partial sum of that entry.
    The slack is the rounding of the complex modulus and of the bounds
    themselves.  So an identity table run over Bounded operators checks
    every operator it forms, partial products included.
    """

    SLACK = 1.0 + 8 * np.finfo(float).eps

    def __init__(self, bands: Bands, envelope: Envelope, partial: Bands | None = None) -> None:
        for checked in (bands,) if partial is None else (bands, partial):
            for offset, values in checked.diagonals.items():
                peak = float(np.max(np.abs(values)))
                assert peak <= envelope.get(offset, 0.0) * self.SLACK, (
                    offset, peak, envelope)
        self.bands, self.envelope = bands, envelope

    def __matmul__(self, other: "Bounded") -> "Bounded":
        magnitude = [Bands(x.bands.dim, {offset: np.abs(values)
                                         for offset, values in x.bands.diagonals.items()})
                     for x in (self, other)]
        return Bounded(self.bands @ other.bands, self.envelope @ other.envelope,
                       magnitude[0] @ magnitude[1])

    def commutator(self, other: "Bounded") -> "Bounded":
        # by `@` both ways, so each product and its partial sums are checked
        return self @ other - other @ self

    def __add__(self, other: "Bounded") -> "Bounded":
        return Bounded(self.bands + other.bands, self.envelope + other.envelope)

    def __sub__(self, other: "Bounded") -> "Bounded":
        return Bounded(self.bands - other.bands, self.envelope - other.envelope)

    def __mul__(self, scalar) -> "Bounded":
        return Bounded(self.bands * scalar, self.envelope * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Bounded":
        return Bounded(self.bands / scalar, self.envelope / scalar)

    def adjoint(self) -> "Bounded":
        return Bounded(self.bands.adjoint(), self.envelope.adjoint())

    # the in-place steps of `Bands`, checked as new results
    _scaled = __mul__
    _plus = __add__


def csr(op: OperatorMatrix) -> sparse.csr_array:
    """Complex `scipy.sparse.csr_array` of an operator, in canonical form.

    Sorted column indices, no duplicates and no stored zeros: its entries
    run in the row-major order of `np.nonzero` on the dense matrix.
    """
    rows, cols, values = op.bands.nonzero()
    indptr = np.zeros(op.dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=op.dim), out=indptr[1:])
    return sparse.csr_array((values.astype(complex), cols, indptr), shape=(op.dim, op.dim))


def rational_touch_angles(num: int, den: int, count: int) -> np.ndarray:
    """The touch angles theta_j of the ratio num/den, one for each j = 1 .. count.

    theta_j = pi r_j / den with r_j = j (den - num) mod 2 den, formed in Python
    integers (object dtype), so no residue overflows, and with no closure
    period in sight.
    """
    residues = (np.arange(1, count + 1, dtype=object) * (den - num)) % (2 * den)
    return np.array([pi * int(r) / den for r in residues])


def block(bands: Bands, states: range) -> Bands:
    """The block of `bands` on a contiguous run of the basis: each diagonal, sliced.

    A sliced entry whose column falls outside the run is set to zero.
    """
    size = len(states)
    rows = np.arange(size)
    return Bands(size, {offset: np.where((rows + offset >= 0) & (rows + offset < size),
                                         values[states.start:states.stop], 0.0)
                        for offset, values in diagonals(bands).items()})


def space_sector(space: TwoModeSpace, j: float) -> LadderRep:
    """Sector j of `space` as an su(1,1) `LadderRep`, sliced from the space's own operators.

    `twomode.sector_operators` builds a sector from its occupations alone;
    this reads the blocks of whatever operators `space` holds.
    """
    members = np.flatnonzero(space.n_a - space.n_b == 2 * j)
    states = range(int(members[0]), int(members[-1]) + 1)
    return LadderRep(Su11(abs(j) + 0.5), len(states),
                     *(OperatorMatrix(op.label, block(op.bands, states))
                       for op in (space.L3, space.Lplus, space.Lminus)))


def full_irrep_deviations(l: float, interior: int) -> np.ndarray:
    """||([a, a†] - 1)|n>|| for n = 0 .. interior-1, from dense ladders of the whole spin-l irrep.

    a = L-/sqrt(2l) and a† = L+/sqrt(2l), each a dense matrix product, and each
    norm that of a whole column.  Column n < interior of either product reads
    a† only at row n + 1 <= interior, so the leading interior + 1 states of
    the built irrep hold every entry of it.
    """
    rep = build_su2_rep(l)
    size = min(interior + 1, rep.dim)
    a, adag = (dense(block(op.bands, range(size))) / sqrt(2.0 * l)
               for op in (rep.Lminus, rep.Lplus))
    defect = a @ adag - adag @ a - np.eye(size)
    return np.array([np.linalg.norm(defect[:, n]) for n in range(interior)])


def matrix_exponential(a: OperatorMatrix) -> OperatorMatrix:
    """Matrix exponential, via scipy's Pade approximation with scaling and squaring."""
    return from_dense(f"exp({a.label})", expm(dense(a)))


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """{a, b} = ab + ba."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} and {b.dim}")
    return OperatorMatrix(f"{{{a.label},{b.label}}}", a.bands @ b.bands + b.bands @ a.bands)


def hermiticity_residual(a: OperatorMatrix) -> float:
    """max |A - A†|, zero for an exactly hermitian matrix."""
    return max_entry(a.bands - a.bands.adjoint())


def interior_indices(space: TwoModeSpace, bound: int | None = None) -> list[int]:
    """Basis indices, in the sector order, with both occupations below `bound` (default n_max)."""
    bound = space.n_max if bound is None else int(bound)
    side = space.n_max + 1
    return [i for i, flat in enumerate(sector_order(space.n_max).tolist())
            if max(divmod(flat, side)) < bound]


def casimir(space: TwoModeSpace, tol: float = 1e-12) -> OperatorMatrix:
    """Casimir squared, C^2 = 1/4 + L3^2 - (L+L- + L-L+)/2.

    Verified against the diagonal mode form (A†A - B†B)^2/4 on the interior;
    a mismatch beyond `tol` means the construction is broken.
    """
    residual = twomode.casimir_interior_residual(space.n_max)["casimir_interior"]
    if not residual <= tol:  # a nan residual is a breach too
        raise ValueError(f"Casimir forms disagree on the interior: {residual:.3e}")
    l3, lp, lm = space.L3.bands, space.Lplus.bands, space.Lminus.bands
    c2 = 0.25 * Bands.identity(space.dim) + l3 @ l3 - 0.5 * (lp @ lm + lm @ lp)
    return OperatorMatrix("C2", c2)


def dissipative_hamiltonian(
    space: TwoModeSpace, p: DissipativeParams, tol: float = 1e-12
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """H0 = Omega (A†A - B†B) and HI = i Gamma (A†B† - AB), built from the modes.

    The ladder-form identities H0 = 2 Omega C (on j >= 0) and HI = -2 Gamma L2
    are verified on the interior before returning; both pieces are hermitian.
    """
    residuals = twomode.dissipative_residuals(space.n_max, p)
    worst = float(np.max(list(residuals.values())))  # a nan stays nan
    if not worst <= tol:
        raise ValueError(f"dissipative Hamiltonian identities breached: {worst:.3e}")
    h0 = p.Omega * twomode._mode_operators(space.n_a, space.n_b)[0]
    hi = 1j * p.Gamma * (space.Lplus.bands - space.Lminus.bands)
    return OperatorMatrix("H0", h0), OperatorMatrix("HI", hi)


def dense_cartesian(target) -> tuple[np.ndarray, np.ndarray]:
    """L1 = (L+ + L-)/2 and L2 = (L+ - L-)/(2i), from the dense L+ and L- of `target`."""
    lp, lm = dense(target.Lplus), dense(target.Lminus)
    return (lp + lm) / 2.0, (lp - lm) / 2.0j


def dense_l2_finite_ratios(target, interior: int) -> dict[int, float]:
    """Per interior basis state, the ratio `l2_finite_residual` maximizes.

    From one dense `expm` of (pi/2) L1 over the whole space.
    """
    if isinstance(target, TwoModeSpace):
        keep = np.zeros(target.dim, dtype=bool)
        keep[interior_indices(target, interior)] = True
    else:
        keep = np.arange(target.dim) < interior
    l1, l2 = dense_cartesian(target)
    grow = expm((pi / 2.0) * l1)
    weights = target.L3.bands.diagonal()
    ratios = {}
    for state in np.flatnonzero(keep).tolist():
        phi = grow[:, state]
        mismatch = l2 @ phi - 1j * weights[state] * phi
        ratios[state] = float(np.linalg.norm(mismatch[keep])) / float(np.linalg.norm(phi[keep]))
    return ratios


def dense_l2_finite_residual(target, interior: int) -> float:
    """`l2_finite_residual` from one dense `expm` of (pi/2) L1 over the whole space."""
    return max(dense_l2_finite_ratios(target, interior).values())


def l2_finite_residual(target, interior: int) -> float:
    """Finite-rotation diagnostic: how well e^{(pi/2) L1}|n> solves the L2 eigenproblem.

    A TwoModeSpace is read with interior = per-mode occupation bound, an
    su(1,1) LadderRep with interior = number of leading states.

    The finite form of the rotation says the conjugated states
    |phi> = e^{(pi/2) L1} |n> are L2 eigenvectors with eigenvalue i (m + 1/2),
    i.e. i times the L3 eigenvalue of |n>.  For every interior basis state
    this returns the relative eigen-relation residual
    ||(L2 - i <n|L3|n>) |phi>|| / |||phi>||, both restricted to the interior
    components, maximized over the states.

    L1 keeps the sector j, so each sector of a TwoModeSpace is computed on
    its own as the su(1,1) rep `space_sector` slices from the space, whose
    interior is the leading b - 2|j| of its states.  Within a block L- is
    taken as the adjoint of L+, and entries between sectors are not read;
    `sector_match_residual` checks both.  No matrix larger than nmax + 1
    square is formed.

    Diagnostic only: e^{(pi/2) L1} is unbounded and non-unitary, so on a
    truncated space the residual is truncation-dominated, orders of magnitude
    above the infinitesimal commutator residuals.  It decays fast as the
    cutoff grows with the interior held fixed (the operator-identity block
    residual, by contrast, diverges with the cutoff and is not reported).
    """
    if isinstance(target, LadderRep):
        return rotation_block_residual(target, interior)
    # a sector with 2|j| >= interior has no interior state
    return float(np.max([rotation_block_residual(space_sector(target, shift / 2.0),
                                                 interior - abs(shift))
                         for shift in range(1 - interior, interior)]))  # a nan stays nan


def rotation_block_residual(rep: LadderRep, interior: int) -> float:
    """`l2_finite_residual` of one ladder rep, from its L3 diagonal and L+ subdiagonal.

    With real elements L1 is real, symmetric and tridiagonal, and
    L2 = -i (L+ - L-)/2, so i (L2 - i <n|L3|n>) |phi> = ((L+ - L-)/2 + <n|L3|n>) |phi>
    is real.
    """
    levels = rep.L3.bands.diagonal()
    raising = diagonals(rep.Lplus.bands).get(-1, np.zeros(rep.dim))[1:]
    if np.any(np.imag(levels)) or np.any(np.imag(raising)):
        raise ValueError("the rotation block needs real L3 and L+ elements")
    levels, raising = np.real(levels), np.real(raising)
    dim = len(levels)
    steps = np.arange(dim - 1)
    l1 = np.zeros((dim, dim))
    l1[steps + 1, steps] = l1[steps, steps + 1] = raising / 2.0
    phi = nonnegative_exponential((pi / 2.0) * l1)[:, :interior]  # column n is e^{(pi/2) L1}|n>
    mismatch = levels[:interior] * phi
    mismatch[1:] += 0.5 * raising[:, None] * phi[:-1]
    mismatch[:-1] -= 0.5 * raising[:, None] * phi[1:]
    ratios = (np.linalg.norm(mismatch[:interior], axis=0)
              / np.linalg.norm(phi[:interior], axis=0))
    return float(np.max(ratios))


def nonnegative_exponential(m: np.ndarray) -> np.ndarray:
    """e^m of a square matrix with no negative entry: a Taylor series, scaled and squared.

    m / 2^s has 1-norm at most 1/2, where 18 Taylor terms leave a tail of
    1-norm below 2^-18/19! (3e-23); squaring s times gives e^m (Moler and
    Van Loan, "Nineteen dubious ways to compute the exponential of a matrix,
    twenty-five years later", SIAM Rev. 45, 2003, method 3).  Every term and
    every square is entrywise nonnegative, so no sum cancels and each entry
    keeps its relative accuracy, however small it is beside the largest.
    """
    if np.any(m < 0):
        raise ValueError("the Taylor exponential needs a matrix with no negative entry")
    squarings = ceil(log2(max(float(m.sum(axis=0).max()), 1.0))) + 1
    scaled = m / 2.0**squarings
    term = result = np.eye(len(m))
    for order in range(1, 19):
        term = term @ scaled / order
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _python_values(column):
    """The cells of a writer column as Python values (numpy scalars become float/int)."""
    if isinstance(column, Periodic):
        return itertools.islice(itertools.cycle(_python_values(column.values)), column.length)
    if isinstance(column, (np.ndarray, Arange)):
        return column[:].tolist()
    return column


def rows(result: CommandResult):
    """The rows of a writer result, in order, each a tuple of Python values.

    Ragged groups raise ValueError (`result.rows`) before any row is yielded.
    """
    len(result.rows)
    for group in result.groups:
        yield from zip(*map(_python_values, group))
