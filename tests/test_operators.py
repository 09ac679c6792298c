import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from ladderlab.operators import Bands, OperatorMatrix, _times
from oracles import anticommutator, dense, from_dense, hermiticity_residual, matrix_exponential


def taylor_expm(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Independent oracle: scaled Taylor series with repeated squaring."""
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(m, 1), 1e-16)))) + 1)
    scaled = m / 2.0**squarings
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def random_operator(dim: int, seed: int, label: str = "A") -> OperatorMatrix:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return from_dense(label, m)


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            OperatorMatrix("bad", Bands(3, {0: np.zeros(2)}))

    def test_rejects_non_finite(self):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                OperatorMatrix("bad", Bands(2, {0: np.array([value, 1.0])}))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OperatorMatrix("bad", Bands(0, {}))

    @pytest.mark.parametrize("source", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]],
                                        sparse.csr_array(np.eye(2))],
                             ids=["ndarray", "list", "csr_array"])
    def test_rejects_anything_but_bands(self, source):
        with pytest.raises(ValueError, match="'bad'"):
            OperatorMatrix("bad", source)

    def test_entries_are_complex_and_frozen(self):
        entries = dense(from_dense("A", np.eye(2)))
        assert entries.dtype == complex
        with pytest.raises(ValueError):
            entries[0, 0] = 5.0

    def test_dim(self):
        assert from_dense("A", np.eye(4)).dim == 4


class TestCalculus:
    def test_commutator_with_itself_is_zero(self):
        a = random_operator(5, seed=1).bands
        assert np.max(np.abs(dense(a @ a - a @ a))) == 0.0

    def test_adjoint_involution(self):
        a = random_operator(4, seed=2)
        assert np.array_equal(dense(a.bands.adjoint().adjoint()), dense(a))

    def test_dimension_mismatch(self):
        a, b = random_operator(3, seed=3), random_operator(4, seed=4)
        with pytest.raises(ValueError):
            a.bands @ b.bands
        with pytest.raises(ValueError):
            anticommutator(a, b)

    def test_exponential_of_zero_is_identity(self):
        z = from_dense("0", np.zeros((5, 5)))
        assert np.max(np.abs(dense(matrix_exponential(z)) - np.eye(5))) < 1e-15

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_exponential_matches_taylor_oracle(self, seed):
        a = random_operator(6, seed=seed)
        expected = taylor_expm(dense(a))
        got = dense(matrix_exponential(a))
        assert np.max(np.abs(got - expected)) < 1e-11 * max(1.0, np.max(np.abs(expected)))

    def test_exponential_of_antihermitian_is_unitary(self):
        a = random_operator(5, seed=20)
        anti = from_dense("K", dense(a) - dense(a).conj().T)
        u = dense(matrix_exponential(anti))
        assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12

    def test_hermiticity_residual(self):
        h = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
        assert hermiticity_residual(from_dense("H", h)) == 0.0


complex_entries = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    m=arrays(np.complex128, (4, 4), elements=complex_entries),
    n=arrays(np.complex128, (4, 4), elements=complex_entries),
)
def test_commutator_antisymmetry(m, n):
    a, b = from_dense("A", m).bands, from_dense("B", n).bands
    assert np.array_equal(dense(a @ b - b @ a), -dense(b @ a - a @ b))


@settings(max_examples=50, deadline=None)
@given(m=arrays(np.complex128, (3, 3), elements=complex_entries))
def test_adjoint_is_entrywise_conjugate_transpose(m):
    a = from_dense("A", m)
    assert np.array_equal(dense(a.bands.adjoint()), m.conj().T)


def _product(x: float, y: float) -> float:
    """x * y correctly rounded, with the IEEE sign (the product of the signs), also at zero."""
    sign = math.copysign(1.0, x) * math.copysign(1.0, y)
    return math.copysign(float(Fraction(x) * Fraction(y)), sign)


def _sum(x: float, y: float) -> float:
    """x + y correctly rounded; an exact zero is -0.0 only when both terms are -0.0."""
    exact = Fraction(x) + Fraction(y)
    if exact:
        return float(exact)
    return -0.0 if math.copysign(1.0, x) < 0 and math.copysign(1.0, y) < 0 else 0.0


def _textbook(a: complex, b: complex) -> complex:
    """(ar br - ai bi) + i (ar bi + ai br), each real product rounded, then one rounded sum."""
    return complex(_sum(_product(a.real, b.real), -_product(a.imag, b.imag)),
                   _sum(_product(a.real, b.imag), _product(a.imag, b.real)))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


# long enough for numpy's vector loops, which may fuse a complex product into
# multiply-adds that round once
wide_entries = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
factor_pairs = st.integers(min_value=1, max_value=80).flatmap(
    lambda n: st.tuples(arrays(np.complex128, n, elements=wide_entries),
                        arrays(np.complex128, n, elements=wide_entries)))


@settings(max_examples=100, deadline=None)
@given(factor_pairs)
def test_complex_times_matches_the_textbook_formula(factors):
    a, b = factors
    expected = np.array([_textbook(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(_bits(_times(a, b)), _bits(expected))


def test_complex_times_on_a_long_vector_matches_the_textbook_formula():
    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000) for _ in range(2))
    expected = np.array([_textbook(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(_bits(_times(a, b)), _bits(expected))
