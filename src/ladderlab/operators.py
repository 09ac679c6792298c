"""Labeled complex matrices stored as their diagonals, and the band calculus on them.

Every operator the lab builds is a few constant-offset diagonals of its
basis index: the su(2), su(1,1) and h(1) ladders sit on offsets 0 and +-1,
and so do the two-mode L3 and L+- in the sector order of that space (with
zeros at the sector boundaries); the cyclic step operator U sits on -1 and
N - 1.  A `Bands` holds exactly those diagonals as {offset: values} with
values[i] = M[i, i + offset].  On it a product is one shifted elementwise
multiply per pair of offsets, a sum merges the diagonals by offset, and an
interior restriction is a boolean mask, so a residual costs O(dim) per pair
of diagonals.

Each entry of a product is the sum of its terms in ascending order of the
inner index, as in a row-major sparse product, and scalar division multiplies
by the reciprocal, as scipy's sparse arrays do; so the values match
compressed sparse row (CSR) arithmetic entry for entry.
A commutator, `Bands.commutator`, holds its two products and no third
set of vectors: it writes the difference over the first product's
diagonals and drops each diagonal of the second once it is subtracted.
The band store is the only form an operator takes here: no function of the
module accepts or returns a dense matrix.  Every gated identity is an
`Identity` record, and `evaluate` reduces each to its max-entry residual.
An identity table is a function of the operators it reads, so it also runs
over `Envelope`s, a bound on |entry| per diagonal with the same arithmetic:
`in_float_range` runs a table over the envelopes of its operators, at a cost
that does not grow with the dimension, and says whether every entry and
every partial sum the table forms over `Bands` stays finite.
The module needs numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np


def _rows(dim: int, *offsets: int) -> slice:
    """The rows i with 0 <= i + o < dim for every o in `offsets`.

    For one offset these are the rows where a diagonal at that offset has entries.
    """
    start = max(0, *(-o for o in offsets))
    return slice(start, max(start, min(dim, *(dim - o for o in offsets))))


def _at(values: np.ndarray, rows: slice, offset: int) -> np.ndarray:
    """values[i + offset] for the rows i of `rows`."""
    return values[rows.start + offset:rows.stop + offset]


def _shift(values: np.ndarray, offset: int) -> np.ndarray:
    """w[i] = values[i + offset], zero where i + offset falls outside the vector."""
    rows = _rows(len(values), offset)
    shifted = np.zeros_like(values)
    shifted[rows] = _at(values, rows, offset)
    return shifted


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise; complex by complex with each real product rounded on its own.

    numpy's vector loops may fuse a complex product into multiply-adds, which
    round once; the textbook formula matches scalar and sparse complex products.
    """
    if a.dtype.kind != "c" or b.dtype.kind != "c":
        return a * b
    product = np.empty(len(a), dtype=complex)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product


class Bands:
    """A square matrix as its diagonals: {offset: values}, values[i] = M[i, i + offset].

    Each `values` is a float or complex vector of length `dim`, zero where
    i + offset falls outside 0 .. dim-1; an absent offset is an all-zero
    diagonal.  Arithmetic (`@` with a Bands, `+`, `-`, `commutator`, and `*`
    or `/` by a scalar) returns a new Bands and may share vectors with its
    inputs, so treat every Bands as read-only.  `commutator` writes only
    over the vectors of the product it forms itself.
    """

    __slots__ = ("dim", "diagonals")

    def __init__(self, dim: int, diagonals: dict[int, np.ndarray]) -> None:
        self.dim = dim
        self.diagonals = diagonals

    @classmethod
    def diag(cls, values) -> "Bands":
        values = np.asarray(values)
        return cls(len(values), {0: values.astype(np.result_type(values, float))})

    @classmethod
    def identity(cls, dim: int) -> "Bands":
        return cls(dim, {0: np.ones(dim)})

    def diagonal(self) -> np.ndarray:
        """The main diagonal, M[i, i]."""
        return self.diagonals.get(0, np.zeros(self.dim))

    def _require_dim(self, other: "Bands") -> None:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} and {other.dim}")

    def __matmul__(self, other: "Bands") -> "Bands":
        """Matrix product with another Bands of the same dimension.

        (AB)[i, i + p + q] collects A[i, i + p] B[i + p, i + p + q] over the
        pairs of offsets (p, q), on the rows where both factors exist; each
        entry starts at zero and adds its terms in ascending p, the order of
        the inner index.  Every pair forms its diagonal, also one with no
        such rows, so the offsets of A B are the sums p + q, as in
        `Envelope.__matmul__`.
        """
        self._require_dim(other)
        dtype = np.result_type(float, *self.diagonals.values(), *other.diagonals.values())
        product = {}
        for p, a in sorted(self.diagonals.items()):
            for q, b in other.diagonals.items():
                rows = _rows(self.dim, p, p + q)
                if p + q not in product:
                    product[p + q] = np.zeros(self.dim, dtype=dtype)
                product[p + q][rows] += _times(a[rows], _at(b, rows, p))
        return Bands(self.dim, product)

    def _merge(self, other: "Bands", op) -> "Bands":
        self._require_dim(other)
        merged = dict(self.diagonals)
        for offset, values in other.diagonals.items():
            merged[offset] = op(merged[offset] if offset in merged else 0.0, values)
        return Bands(self.dim, merged)

    def commutator(self, other: "Bands") -> "Bands":
        """[self, other] = self @ other - other @ self, formed over the first product.

        Both products are formed, then each diagonal of the second is
        subtracted in place from the first's at its offset and dropped.  The
        two products share their offsets, since every pair of offsets forms
        its diagonal whether or not it has rows, so (p, q) and (q, p) both
        form p + q; and they share their dtype, that of all four factors.  So
        the commutator holds the two products and no third set of vectors,
        and every entry is the same subtraction as in
        self @ other - other @ self, bit for bit.
        """
        product, second = self @ other, (other @ self).diagonals
        while second:
            offset, values = second.popitem()
            np.subtract(product.diagonals[offset], values, out=product.diagonals[offset])
        return product

    def __add__(self, other: "Bands") -> "Bands":
        return self._merge(other, np.add)

    def __sub__(self, other: "Bands") -> "Bands":
        return self._merge(other, np.subtract)

    def __mul__(self, scalar) -> "Bands":
        return Bands(self.dim, {offset: values * scalar
                                for offset, values in self.diagonals.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Bands":
        # by the reciprocal, as sparse scalar division does, so digits match CSR
        return self * (1 / scalar)

    def adjoint(self) -> "Bands":
        """Conjugate transpose: M†[i, i - o] = conj(M[i - o, i])."""
        return Bands(self.dim, {-offset: np.conj(_shift(values, -offset))
                                for offset, values in self.diagonals.items()})

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero entries, in the row-major order of `np.nonzero`."""
        offsets = sorted(self.diagonals)
        rows = [np.flatnonzero(self.diagonals[offset]) for offset in offsets]
        cols = [r + offset for r, offset in zip(rows, offsets)]
        values = [self.diagonals[offset][r] for r, offset in zip(rows, offsets)]
        empty = [np.zeros(0, dtype=np.int64)]
        rows, cols, values = (np.concatenate(part or empty) for part in (rows, cols, values))
        # within a row the columns ascend with the offsets, which are already sorted
        order = np.argsort(rows, kind="stable")
        return rows[order], cols[order], values[order]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A labeled complex square matrix held as its diagonals.

    `bands` must be a `Bands` of dimension at least 1, and is held as it is
    given, all-zero diagonals included (`Bands.nonzero` leaves zero entries
    out); values keep a float dtype when they are real.  Every entry must
    be finite, the modulus of a complex one too, so `max_entry` of the
    bands is finite.
    """

    label: str
    bands: Bands

    def __post_init__(self) -> None:
        bands = self.bands
        if not isinstance(bands, Bands):
            raise ValueError(f"{self.label!r}: a square matrix is given as a Bands, "
                             f"not a {type(bands).__name__}")
        if any(values.shape != (bands.dim,) for values in bands.diagonals.values()):
            raise ValueError(f"{self.label!r}: every diagonal needs {bands.dim} values")
        if bands.dim < 1:
            raise ValueError(f"{self.label!r}: dimension must be at least 1")
        # the modulus of a complex entry can overflow where both its parts are finite
        if not all(np.isfinite(np.abs(values) if values.dtype.kind == "c" else values).all()
                   for values in bands.diagonals.values()):
            raise ValueError(f"{self.label!r}: entries must be finite")

    @property
    def dim(self) -> int:
        return self.bands.dim


def max_entry(bands: Bands, keep=None) -> float:
    """Largest absolute entry of a `Bands`: the identity-residual norm.

    With `keep`, a boolean vector over the basis, only the entries whose row
    and column are both kept count: the residual restricted to that
    interior.  A nan among the counted entries gives nan, so no tolerance
    gate can pass it.
    """
    peak = 0.0
    for offset, values in bands.diagonals.items():
        rows = _rows(bands.dim, offset)
        values = values[rows]
        if keep is not None:
            values = values[keep[rows] & _at(keep, rows, offset)]
        if values.size:
            peak = np.maximum(peak, np.max(np.abs(values)))
    return float(peak)


@dataclass(frozen=True, eq=False)
class Identity:
    """One gated identity: the name it is reported under, its residual, and where it is read.

    `residual()` forms lhs - rhs as a `Bands`, or as an `Envelope` when the
    table is run over envelopes.  `mask`, a boolean vector over the basis,
    counts the entries whose row and column are both kept, as in
    `max_entry`; with None every entry counts.  The mask is the only place
    an identity is restricted.
    """

    name: str
    residual: Callable[[], Bands]
    mask: np.ndarray | None = None


def evaluate(identities: Iterable[Identity]) -> dict[str, float]:
    """The max-entry residual of each identity, by name, in the order the names first come.

    Each identity is read on its own mask, and identities that share a name
    give the largest of their values.  They are taken one at a time, and
    each residual is dropped once it is reduced, so a table given as a
    generator can drop an operator after yielding the last identity that
    reads it.  A nan in any counted entry gives its name nan, so no
    tolerance gate can pass it.
    """
    values: dict[str, float] = {}
    for identity in identities:
        peak = max_entry(identity.residual(), identity.mask)
        values[identity.name] = float(np.maximum(values.get(identity.name, 0.0), peak))
    return values


class Envelope(dict):
    """A bound on the entries of an operator, by diagonal: {offset: bound on |entry|}.

    The arithmetic of `Bands`, over bounds: `@` adds a[p] b[q] into offset
    p + q, `+` and `-` add the two bounds, `commutator` forms both products
    and adds them, a scalar multiplies each bound by its absolute value, and
    `adjoint` mirrors the offsets.  Each result
    bounds every entry, and every partial sum of an entry, that the same
    operation forms over operators within the operands' bounds.  The bounds
    are Python floats, which overflow to inf without a warning.
    """

    def __matmul__(self, other: "Envelope") -> "Envelope":
        product = Envelope()
        for p, a in self.items():
            for q, b in other.items():
                product[p + q] = product.get(p + q, 0.0) + a * b
        return product

    def commutator(self, other: "Envelope") -> "Envelope":
        """The bound of [A, B] = A B - B A: the arithmetic of `Bands.commutator`."""
        return self @ other - other @ self

    def __add__(self, other: "Envelope") -> "Envelope":
        return Envelope({offset: self.get(offset, 0.0) + other.get(offset, 0.0)
                         for offset in self.keys() | other.keys()})

    __sub__ = __add__

    def __mul__(self, scalar) -> "Envelope":
        return Envelope({offset: abs(scalar) * bound for offset, bound in self.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Envelope":
        return self * (1 / scalar)

    def adjoint(self) -> "Envelope":
        return Envelope({-offset: bound for offset, bound in self.items()})


def in_float_range(identities: Iterable[Identity]) -> bool:
    """Whether a table run over `Envelope`s stays in the float range.

    Every bound of every residual must be finite.  The table's own scalars
    count too: one whose power overflows raises OverflowError, which reads
    as out of range.
    """
    try:
        return all(math.isfinite(bound) for identity in identities
                   for bound in identity.residual().values())
    except OverflowError:
        return False
