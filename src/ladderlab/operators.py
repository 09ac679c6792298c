"""Labeled sparse complex matrices and the small operator calculus built on them.

Every operator the lab builds is diagonal, a single off-diagonal band, a
Kronecker product of those, or a phased cyclic permutation, so each one is
stored in compressed sparse row (CSR) form and every product and residual
touches only the stored entries.  A dense copy is built on request, for small
sizes and for the dense oracles of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A labeled complex square matrix held in canonical CSR form.

    `csr` accepts a dense array or any scipy sparse array; it is stored as a
    complex `csr_array` copy with sorted column indices, no duplicate entries
    and no stored zeros, so its entries run in the row-major order of
    `np.nonzero` on the dense matrix.  Treat it as read-only: `entries`, the
    dense view, is built from it once.
    """

    label: str
    csr: sparse.csr_array

    def __post_init__(self) -> None:
        source = self.csr if sparse.issparse(self.csr) else np.asarray(self.csr, dtype=complex)
        if len(source.shape) != 2 or source.shape[0] != source.shape[1]:
            raise ValueError(f"{self.label!r}: entries must form a square matrix")
        if source.shape[0] < 1:
            raise ValueError(f"{self.label!r}: dimension must be at least 1")
        csr = sparse.csr_array(source, dtype=complex, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError(f"{self.label!r}: entries must be finite")
        object.__setattr__(self, "csr", csr)

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only dense copy, built on first access; meant for small sizes."""
        dense = self.csr.toarray()
        dense.setflags(write=False)
        return dense


def _require_same_dim(a: OperatorMatrix, b: OperatorMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(
            f"dimension mismatch: {a.label!r} is {a.dim}x{a.dim}, {b.label!r} is {b.dim}x{b.dim}"
        )


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = ab - ba."""
    _require_same_dim(a, b)
    return OperatorMatrix(f"[{a.label},{b.label}]", a.csr @ b.csr - b.csr @ a.csr)


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """{a, b} = ab + ba."""
    _require_same_dim(a, b)
    return OperatorMatrix(f"{{{a.label},{b.label}}}", a.csr @ b.csr + b.csr @ a.csr)


def adjoint(a: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose."""
    return OperatorMatrix(f"{a.label}†", a.csr.conj().T)


def matrix_exponential(a: OperatorMatrix) -> OperatorMatrix:
    """Matrix exponential, via scipy's Pade approximation with scaling and squaring.

    Dense by nature: the exponential of a banded matrix fills in.
    """
    from scipy.linalg import expm

    return OperatorMatrix(f"exp({a.label})", expm(np.asarray(a.entries)))


def max_entry(matrix) -> float:
    """Largest absolute entry of a dense or sparse array; the identity-residual norm."""
    if sparse.issparse(matrix):
        matrix = sparse.csr_array(matrix)
        matrix.sum_duplicates()
        values = matrix.data
    else:
        values = np.asarray(matrix)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))


def restricted(matrix, indices):
    """Sub-matrix on the given basis indices (same set for rows and columns).

    Dense input gives a dense block, sparse input a CSR block.
    """
    idx = np.asarray(list(indices), dtype=int)
    if sparse.issparse(matrix):
        return sparse.csr_array(matrix)[idx][:, idx]
    return matrix[np.ix_(idx, idx)]


def hermiticity_residual(a: OperatorMatrix) -> float:
    """max |A - A†|, zero for an exactly hermitian matrix."""
    return max_entry(a.csr - a.csr.conj().T)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted by real part, then imaginary part.

    When `hermitian` is set the imaginary parts were below tolerance and
    `values` is a real array.
    """

    values: np.ndarray
    hermitian: bool

    @classmethod
    def from_eigenvalues(cls, values, hermitian_tol: float | None = None) -> "Spectrum":
        vals = np.asarray(values, dtype=complex)
        vals = vals[np.lexsort((vals.imag, vals.real))]
        if hermitian_tol is not None and np.max(np.abs(vals.imag), initial=0.0) < hermitian_tol:
            return cls(values=vals.real.copy(), hermitian=True)
        return cls(values=vals, hermitian=False)

    def __len__(self) -> int:
        return len(self.values)
