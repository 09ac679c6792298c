"""The band calculus of `ladderlab.operators` against a dense oracle.

Random band operators have dimension 1 to 12, offsets up to +-(dim - 1), and
may hold empty (absent) or all-zero diagonals.  The dense oracle forms a
complex product from four real matrix products, so each real product is
rounded on its own, as `Bands` does; an entry of a product with at most one
nonzero term is then compared bit for bit, and an entry that sums two or
more terms is held to a few ulps of sum |a||b| (Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., sec. 3.5).  Sums, scalar
multiples, masked maxima, restrictions, the dense view and the oracles' CSR
view involve no reordered rounding and are compared bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ladderlab.operators import Bands, Envelope, OperatorMatrix, max_entry
import oracles
from oracles import csr, dense, from_dense

EPS = float(np.finfo(float).eps)

values_ = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def band_operators(draw, dim=None, offsets=None):
    """A `Bands` with random (or the given) offsets; each diagonal is random or all zero."""
    dim = draw(st.integers(1, 12)) if dim is None else dim
    is_complex = draw(st.booleans())
    if offsets is None:
        offsets = draw(st.lists(st.integers(-(dim - 1), dim - 1), unique=True, max_size=5))
    diagonals = {}
    for offset in offsets:
        values = np.array(draw(st.lists(values_, min_size=dim, max_size=dim)))
        if is_complex:
            values = values + 1j * np.array(draw(st.lists(values_, min_size=dim, max_size=dim)))
        if draw(st.booleans()):
            values = np.zeros_like(values)
        inside = np.arange(dim) + offset
        values[(inside < 0) | (inside >= dim)] = 0.0
        diagonals[offset] = values
    return Bands(dim, diagonals)


@st.composite
def operator_pairs(draw):
    dim = draw(st.integers(1, 12))
    return draw(band_operators(dim)), draw(band_operators(dim))


def dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b from four real products: each real product of entries rounded on its own."""
    return (a.real @ b.real - a.imag @ b.imag) + 1j * (a.real @ b.imag + a.imag @ b.real)


@settings(max_examples=150, deadline=None)
@given(pair=operator_pairs())
def test_product(pair):
    a, b = pair
    da, db = dense(a), dense(b)
    got, want = dense(a @ b), dense_product(da, db)
    terms = (da != 0).astype(int) @ (db != 0).astype(int)
    single = terms <= 1
    assert np.array_equal(got[single], want[single])
    scale = np.abs(da) @ np.abs(db)
    assert np.all(np.abs(got - want) <= 4 * EPS * scale)


@settings(max_examples=150, deadline=None)
@given(pair=operator_pairs(), scalar=values_)
def test_sum_difference_and_scalar_multiple(pair, scalar):
    a, b = pair
    assert np.array_equal(dense(a + b), dense(a) + dense(b))
    assert np.array_equal(dense(a - b), dense(a) - dense(b))
    assert np.array_equal(dense(scalar * a), scalar * dense(a))
    assert np.array_equal(dense(a * scalar), dense(a) * scalar)
    assert np.array_equal(dense(a.adjoint()), dense(a).conj().T)


@settings(max_examples=150, deadline=None)
@given(a=band_operators(), data=st.data())
def test_masked_max_entry_and_restriction(a, data):
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=a.dim, max_size=a.dim)))
    m = dense(a)
    indices = np.flatnonzero(keep)
    block = m[np.ix_(indices, indices)]
    assert max_entry(a) == np.max(np.abs(m))
    assert max_entry(a, keep) == np.max(np.abs(block), initial=0.0)
    # a contiguous run, as a two-mode sector is, is sliced from the diagonals
    start = data.draw(st.integers(0, a.dim - 1))
    stop = data.draw(st.integers(start + 1, a.dim))
    block = oracles.block(a, range(start, stop))
    assert np.array_equal(dense(block), m[start:stop, start:stop])
    _, cols, _ = block.nonzero()  # nothing from outside the run is carried into the block
    assert np.all((cols >= 0) & (cols < stop - start))


@settings(max_examples=150, deadline=None)
@given(a=band_operators())
def test_views(a):
    op = OperatorMatrix("M", a)
    m = dense(a)
    assert np.array_equal(dense(op), m)
    view = csr(op)
    assert view.format == "csr" and view.has_canonical_format
    assert np.all(view.data != 0)
    assert np.array_equal(view.toarray(), m)
    rows, cols, values = op.bands.nonzero()
    want_rows, want_cols = np.nonzero(m)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(values.astype(complex), m[want_rows, want_cols])
    # the Bands it is given is held as it is, all-zero diagonals included
    assert op.bands is a


@settings(max_examples=100, deadline=None)
@given(a=band_operators())
def test_scipy_input_rejected(a):
    m = dense(a)
    for source in (sparse.csr_array(m), sparse.coo_matrix(m), csr(OperatorMatrix("D", a))):
        with pytest.raises(ValueError, match="square matrix"):
            OperatorMatrix("S", source)


def test_real_input_keeps_real_diagonals():
    op = from_dense("A", np.diag([1.0, 2.0], 1) + np.eye(3))
    assert sorted(op.bands.diagonals) == [0, 1]
    assert all(values.dtype == float for values in op.bands.diagonals.values())
    assert dense(op).dtype == complex and csr(op).dtype == complex


def test_zero_operator_has_no_diagonals():
    op = from_dense("0", np.zeros((3, 3)))
    assert op.bands.diagonals == {} and op.dim == 3
    assert max_entry(op.bands) == 0.0
    assert csr(op).nnz == 0


def test_rejects_ragged_or_non_finite_diagonals():
    with pytest.raises(ValueError, match="3 values"):
        OperatorMatrix("bad", Bands(3, {0: np.ones(2)}))
    with pytest.raises(ValueError, match="finite"):
        OperatorMatrix("bad", Bands(2, {0: np.array([1.0, np.nan])}))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Bands.identity(2) @ Bands.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Bands.identity(2) + Bands.identity(3)


def test_constructor_and_dim_stay_for_tracing():
    # perfbench's tracer wraps OperatorMatrix.__post_init__ and reads .dim
    assert "__post_init__" in vars(OperatorMatrix)
    assert OperatorMatrix("I", Bands.identity(4)).dim == 4


@pytest.mark.parametrize("first", [True, False], ids=["nan-diagonal-first", "nan-diagonal-last"])
def test_a_nan_entry_is_the_max_entry_unless_masked_out(first):
    # M[1, 2] is nan; Python's max(0.0, nan) is 0.0, so a fold with `max`
    # read it as 0.0 whenever another diagonal came first
    diagonals = [(0, np.array([1.0, -2.0, 3.0, 0.5])),
                 (1, np.array([0.25, np.nan, 0.75, 0.0]))]
    a = Bands(4, dict(diagonals if first else diagonals[::-1]))
    assert np.isnan(max_entry(a))
    assert np.isnan(max_entry(a, np.array([True, True, True, False])))
    assert max_entry(a, np.array([True, False, True, True])) == 3.0  # row 1 left out
    assert max_entry(a, np.array([True, True, False, True])) == 2.0  # column 2 left out


@st.composite
def commutator_pairs(draw):
    """Two float, complex or mixed `Bands` of dimension 1 to 9 on shared or disjoint offsets."""
    dim = draw(st.integers(1, 9))
    offsets = draw(st.lists(st.integers(-(dim - 1), dim - 1), unique=True, max_size=6))
    if draw(st.booleans()):
        first, second = offsets, offsets
    else:
        cut = draw(st.integers(0, len(offsets)))
        first, second = offsets[:cut], offsets[cut:]
    return draw(band_operators(dim, first)), draw(band_operators(dim, second))


def assert_same_bits(got: Bands, want: Bands) -> None:
    """The same offsets in the same order, dtypes, values and signs of zero."""
    assert list(got.diagonals) == list(want.diagonals)
    for offset, values in want.diagonals.items():
        other = got.diagonals[offset]
        assert other.dtype == values.dtype
        assert np.array_equal(other, values)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(other)), np.signbit(part(values)))


@settings(max_examples=200, deadline=None)
@given(pair=commutator_pairs())
def test_commutator_matches_both_products_and_their_difference(pair):
    a, b = pair
    before = [{offset: values.copy() for offset, values in x.diagonals.items()} for x in pair]
    assert_same_bits(a.commutator(b), a @ b - b @ a)
    # the two products share their offsets and dtype, so each diagonal is written in place
    ab, ba = (a @ b).diagonals, (b @ a).diagonals
    assert sorted(ab) == sorted(ba)
    assert all(ab[offset].dtype == ba[offset].dtype for offset in ab)
    # it writes over its own first product, never over an operand
    for x, copies in zip(pair, before):
        assert list(x.diagonals) == list(copies)
        assert all(np.array_equal(x.diagonals[offset], values, equal_nan=True)
                   for offset, values in copies.items())


# L+ and L- of a one-state two-mode sector are all-zero diagonals at +-1, past
# the matrix, and at dim 2 the pair of offsets (1, 1) has no rows: every pair
# forms its diagonal all the same, so a product holds each sum of offsets
@pytest.mark.parametrize("a", [
    Bands(1, {-1: np.zeros(1), 1: np.zeros(1)}),
    Bands(2, {0: np.array([1.0, -3.0]), 1: np.array([2.0, 0.0])}),
], ids=["one-state-ladders", "dim-2-raising"])
def test_a_pair_of_offsets_with_no_rows_forms_its_diagonal(a):
    b = a.adjoint()
    for x, y in ((a, a), (a, b), (b, a)):
        dx, dy = dense(x), dense(y)
        product = x @ y
        assert sorted(product.diagonals) == sorted({p + q for p in x.diagonals
                                                    for q in y.diagonals})
        assert np.array_equal(dense(product), dense_product(dx, dy))
        assert np.array_equal(dense(x.commutator(y)),
                              dense_product(dx, dy) - dense_product(dy, dx))


@settings(max_examples=100, deadline=None)
@given(a=st.dictionaries(st.integers(-3, 3), st.floats(0.0, 1e300), max_size=4),
       b=st.dictionaries(st.integers(-3, 3), st.floats(0.0, 1e300), max_size=4))
def test_envelope_commutator_is_the_envelope_arithmetic(a, b):
    a, b = Envelope(a), Envelope(b)
    assert a.commutator(b) == a @ b - b @ a == a @ b + b @ a
