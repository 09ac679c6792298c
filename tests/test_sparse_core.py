"""The sparse operator core against dense oracles kept here.

The oracles rebuild every operator and residual from dense numpy matrices
(`np.diag`, `np.kron`, dense products, `np.linalg.matrix_power`, the dense
DFT triple product) at sizes where that is cheap.  Products whose every
entry is a single term (a diagonal or single-band factor) round identically
in both forms and are compared bitwise; sums of two or more products may
round in a different order and are held to a few ulps of their scale.  Past
the dense ceiling the two-mode residuals are checked against the rounding
bound C * eps * scale with C = 16, where scale is the largest product of
entries the identity sums (Higham, "Accuracy and Stability of Numerical
Algorithms", ch. 3).
"""

import math
import tracemalloc

import numpy as np
import pytest

from ladderlab import (
    DissipativeParams,
    EvolutionParams,
    build_h1_rep,
    build_su2_rep,
    build_su11_rep,
    casimir_interior_residual,
    check_algebra_relations,
    dissipative_residuals,
    geometric_phase_check,
    holstein_primakoff,
    l2_relation_check,
    sector_match_residual,
    sector_operators,
    spectrum_via_dft,
)
from ladderlab import twomode
from ladderlab.cli import ELEMENT_COLUMNS, _element_groups
from ladderlab.contraction import _deviations, deformed_identity_residuals
from ladderlab.operators import Bands, OperatorMatrix
from ladderlab.writer import CommandResult
import oracles
from oracles import (
    build_two_mode,
    casimir,
    csr,
    dense,
    dense_two_mode,
    evolution_bands,
    from_dense,
    in_sector_order,
    interior_indices,
    scalar_power,
)

EPS = float(np.finfo(float).eps)
C = 16


def _element_rows(ops) -> list[tuple]:
    """The rows the CLI writes for `ops`, as tuples."""
    return list(oracles.rows(CommandResult(ELEMENT_COLUMNS, _element_groups(ops))))


# ---------------------------------------------------------------- dense oracles


def dense_ladder(diagonal, raising):
    """Complex dense (L3, L+, L-), as the dense implementation stored them."""
    lp = np.diag(np.asarray(raising, dtype=complex), -1)
    return np.diag(np.asarray(diagonal, dtype=complex)), lp, lp.T


def dense_su2(l):
    dim = int(round(2 * l)) + 1
    n = np.arange(dim - 1, dtype=float)
    return dense_ladder(np.arange(dim) - l, np.sqrt((2.0 * l - n) * (n + 1.0)))


def dense_su11(k, dim):
    n = np.arange(dim - 1, dtype=float)
    return dense_ladder(np.arange(dim) + k, np.sqrt((n + 2.0 * k) * (n + 1.0)))


def dense_h1(dim):
    return dense_ladder(np.arange(dim) + 0.5, np.sqrt(np.arange(1, dim, dtype=float)))


def dense_mode_numbers(n_max):
    side = n_max + 1
    return np.repeat(np.arange(side), side).astype(float), np.tile(np.arange(side), side).astype(float)


def dense_relations(l3, lp, lm, kind, interior):
    keep = range(interior)
    residuals = [l3 @ lp - lp @ l3 - lp, l3 @ lm - lm @ l3 + lm]
    if kind == "h1":
        residuals.append(lm @ lp - lp @ lm - np.eye(len(l3)))
    else:
        sign = 2.0 if kind == "su2" else -2.0
        residuals.append(lp @ lm - lm @ lp - sign * l3)
    return max(np.max(np.abs(r[np.ix_(keep, keep)])) for r in residuals)


def dense_casimir(ops):
    l3, lp, lm = ops["L3"], ops["Lplus"], ops["Lminus"]
    return 0.25 * np.eye(len(l3)) + l3 @ l3 - 0.5 * (lp @ lm + lm @ lp)


def dense_dissipative(ops, n_max, omega, gamma):
    a, adag, b, bdag = ops["A"], ops["Adag"], ops["B"], ops["Bdag"]
    h0 = omega * (adag @ a - bdag @ b)
    hi = 1j * gamma * (adag @ bdag - a @ b)
    l2 = (ops["Lplus"] - ops["Lminus"]) / 2.0j
    n_a, n_b = dense_mode_numbers(n_max)
    keep = [i for i in range(len(n_a)) if n_a[i] < n_max and n_b[i] < n_max]
    nonneg = [i for i in range(len(n_a)) if n_a[i] >= n_b[i]]
    c = np.diag(np.abs(n_a - n_b) / 2.0)
    return {
        "h0_vs_casimir": np.max(np.abs((h0 - 2.0 * omega * c)[np.ix_(nonneg, nonneg)])),
        "hi_vs_l2": np.max(np.abs((hi - (-2.0 * gamma) * l2)[np.ix_(keep, keep)])),
        "h0_hermiticity": np.max(np.abs(h0 - h0.conj().T)),
        "hi_hermiticity": np.max(np.abs(hi - hi.conj().T)),
        "h0_hi_commutator": np.max(np.abs((h0 @ hi - hi @ h0)[np.ix_(keep, keep)])),
    }


def dense_l2_relations(lp, lm, l3, keep):
    l1, l2 = (lp + lm) / 2.0, (lp - lm) / 2.0j
    first = l1 @ l3 - l3 @ l1
    second = l1 @ first - first @ l1
    return (np.max(np.abs((first + 1j * l2)[np.ix_(keep, keep)])),
            np.max(np.abs((second + l3)[np.ix_(keep, keep)])))


def dense_cyclic(n):
    perm = np.zeros((n, n))
    cols = np.arange(n)
    perm[(cols + 1) % n, cols] = 1.0
    return np.exp(-1j * math.pi / n) * perm


def assert_bitwise(op, want):
    assert csr(op).dtype == complex
    assert np.array_equal(dense(op), np.asarray(want, dtype=complex))


SU2_LABELS = [0.5, 1.0, 1.5, 3.0, 4.5, 9.5]
SMALL_NMAX = [1, 2, 5, 8]


# ---------------------------------------------------------------- storage


class TestStorage:
    def test_canonical_csr_without_stored_zeros(self):
        rep = build_su2_rep(3.0)  # L3 = diag(-3 .. 3) has an exact zero at n = 3
        view = csr(rep.L3)
        assert view.format == "csr" and view.has_canonical_format
        assert view.nnz == 6 and np.all(view.data != 0)

    def test_dense_view_is_read_only(self):
        with pytest.raises(ValueError):
            dense(build_h1_rep(5).Lplus)[1, 0] = 2.0

    def test_rejects_non_finite_sparse_entries(self):
        # one non-finite entry, given densely or as the band store's one diagonal
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((3, 3))
            bad[0, 1] = value
            with pytest.raises(ValueError, match="finite"):
                from_dense("bad", bad)
            with pytest.raises(ValueError, match="finite"):
                OperatorMatrix("bad", Bands(3, {1: np.array([value, 0.0, 0.0])}))


# ---------------------------------------------------------------- builders


class TestBuildersMatchDense:
    @pytest.mark.parametrize("l", SU2_LABELS)
    def test_su2(self, l):
        rep = build_su2_rep(l)
        for op, dense in zip((rep.L3, rep.Lplus, rep.Lminus), dense_su2(l)):
            assert_bitwise(op, dense)

    @pytest.mark.parametrize("k,dim", [(0.5, 2), (0.5, 20), (1.5, 11), (4.0, 17)])
    def test_su11(self, k, dim):
        rep = build_su11_rep(k, dim)
        for op, dense in zip((rep.L3, rep.Lplus, rep.Lminus), dense_su11(k, dim)):
            assert_bitwise(op, dense)

    @pytest.mark.parametrize("dim", [2, 9, 20])
    def test_h1(self, dim):
        rep = build_h1_rep(dim)
        for op, dense in zip((rep.L3, rep.Lplus, rep.Lminus), dense_h1(dim)):
            assert_bitwise(op, dense)

    @pytest.mark.parametrize("n_max", range(1, 13))
    def test_two_mode(self, n_max):
        space, ops = build_two_mode(n_max), dense_two_mode(n_max)
        for name in ("Lplus", "Lminus", "L3"):
            assert_bitwise(getattr(space, name), in_sector_order(ops[name], n_max))

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_evolution_operator(self, n):
        u = evolution_bands(EvolutionParams(n, 0.8))
        assert csr(u).nnz == n
        assert_bitwise(u, dense_cyclic(n))

    def test_casimir_root_and_ladder_form(self):
        space, ops = build_two_mode(6), dense_two_mode(6)
        n_a, n_b = (in_sector_order(n, 6) for n in dense_mode_numbers(6))
        root = OperatorMatrix("C", twomode._casimir_root(space.n_a, space.n_b))
        assert_bitwise(root, np.diag(np.abs(n_a - n_b) / 2.0))
        assert_bitwise(casimir(space), in_sector_order(dense_casimir(ops), 6))

    def test_holstein_primakoff(self):
        rep = build_su11_rep(0.5, 12)
        a, adag = holstein_primakoff(rep)
        l3, lp, lm = dense_su11(0.5, 12)
        f = 1.0 / np.sqrt(np.diag(l3).real + 0.5)
        assert_bitwise(a, f[:, None] * lm)
        assert_bitwise(adag, lp * f[None, :])


class TestSingleBandProductsBitwise:
    @pytest.mark.parametrize("l", SU2_LABELS)
    def test_ladder_products(self, l):
        rep = build_su2_rep(l)
        ops = (rep.L3, rep.Lplus, rep.Lminus)
        for x in ops:
            for y in ops:
                assert np.array_equal((csr(x) @ csr(y)).toarray(), dense(x) @ dense(y))

    @pytest.mark.parametrize("n_max", [2, 8])
    def test_two_mode_products(self, n_max):
        space = build_two_mode(n_max)
        ops = (space.Lplus, space.Lminus, space.L3)
        for x in ops:
            for y in ops:
                assert np.array_equal((csr(x) @ csr(y)).toarray(), dense(x) @ dense(y))

    @pytest.mark.parametrize("n", [*range(2, 65), 2**18, 1000003])
    def test_cyclic_power_is_the_scalar_phase_power(self, n):
        # The phase multiplied up in binary squaring order, each part of each
        # product added to 0.0 as the band product's accumulator adds it.  repr
        # tells -0.0 from 0.0, which == does not: without the zero-add, N = 16
        # gives an imaginary part of -0.0.
        power = scalar_power(np.exp(-1j * math.pi / n), n)
        phi = geometric_phase_check(EvolutionParams(n, 1.0))
        assert (repr(phi.real), repr(phi.imag)) == (repr(power.real), repr(power.imag))

    @pytest.mark.parametrize("n", range(2, 65))
    def test_cyclic_power_is_the_band_power_entry(self, n):
        # U^N formed as a matrix, by band products in `numpy.linalg.matrix_power`
        # order, is phi times the identity with phi's bits in every entry
        square = evolution_bands(EvolutionParams(n, 1.0)).bands
        power = None
        remaining = n
        while remaining > 0:
            remaining, bit = divmod(remaining, 2)
            if bit:
                power = square if power is None else power @ square
            if remaining:
                square = square @ square
        phi = geometric_phase_check(EvolutionParams(n, 1.0))
        assert np.array_equal(dense(power), phi * np.eye(n))
        entry = complex(power.diagonal()[0])
        assert (repr(phi.real), repr(phi.imag)) == (repr(entry.real), repr(entry.imag))


# ---------------------------------------------------------------- residuals


class TestResidualsMatchDense:
    @pytest.mark.parametrize("kind,label,dim", [
        ("su2", 0.5, None), ("su2", 3.0, None), ("su2", 9.5, None),
        ("su11", 1.5, 20), ("su11", 0.5, 12), ("h1", None, 20),
    ])
    def test_algebra_relations(self, kind, label, dim):
        if kind == "su2":
            rep, dense = build_su2_rep(label), dense_su2(label)
        elif kind == "su11":
            rep, dense = build_su11_rep(label, dim), dense_su11(label, dim)
        else:
            rep, dense = build_h1_rep(dim), dense_h1(dim)
        for interior in {1, rep.dim - 1, rep.dim}:
            assert check_algebra_relations(rep, interior)["relations_residual"] == dense_relations(
                *dense, kind, interior)

    @pytest.mark.parametrize("l", [1.0, 4.5, 9.5])
    def test_contraction_deviation(self, l):
        rep = build_su2_rep(l)
        _, lp, lm = dense_su2(l)
        a, adag = lm / math.sqrt(2.0 * l), lp / math.sqrt(2.0 * l)
        comm = a @ adag - adag @ a
        for n in range(rep.dim):
            vec = comm[:, n].copy()
            vec[n] -= 1.0
            assert _deviations(rep)[n] == float(np.linalg.norm(vec))

    @pytest.mark.parametrize("l,tau", [(0.5, 1.0), (3.0, 0.4), (9.5, 2.5)])
    def test_identities(self, l, tau):
        # The x-p products sum two terms per entry, so rounding order may differ.
        rep = build_su2_rep(l)
        l3, lp, lm = dense_su2(l)
        alpha = math.sqrt(tau / math.pi)
        beta = -2.0 / (2.0 * l + 1.0) * math.sqrt(math.pi / tau)
        x, p = alpha * ((lp + lm) / 2.0), beta * ((lp - lm) / 2.0j)
        dim = rep.dim
        omega = 2.0 * math.pi / (dim * tau)
        h = omega * (l3 + (l + 0.5) * np.eye(dim))
        commutator = np.max(np.abs(x @ p - p @ x - 1j * (np.eye(dim) - (tau / math.pi) * h)))
        decomposition = np.max(np.abs(h - (
            0.5 * omega**2 * (x @ x) + 0.5 * (p @ p)
            + (tau / (2.0 * math.pi)) * (omega**2 / 4.0 * np.eye(dim) + h @ h))))
        residuals = deformed_identity_residuals(rep, tau)
        assert abs(residuals["deformed_commutator"] - commutator) <= 4 * EPS * (l + 4.0)
        assert abs(residuals["hamiltonian_decomposition"] - decomposition) <= (
            4 * EPS * 8 * math.pi / tau)

    @pytest.mark.parametrize("n_max", SMALL_NMAX)
    def test_casimir_residual(self, n_max):
        space, ops = build_two_mode(n_max), dense_two_mode(n_max)
        n_a, n_b = dense_mode_numbers(n_max)
        keep = interior_indices(space)
        want = np.max(np.abs(in_sector_order(dense_casimir(ops) - np.diag(0.25 * (n_a - n_b) ** 2),
                                             n_max)[np.ix_(keep, keep)]))
        assert casimir_interior_residual(n_max)["casimir_interior"] == want

    @pytest.mark.parametrize("n_max", SMALL_NMAX)
    def test_dissipative_residuals(self, n_max):
        ops = dense_two_mode(n_max)
        got = dissipative_residuals(n_max, DissipativeParams(Omega=1.3, Gamma=0.7))
        assert got == dense_dissipative(ops, n_max, 1.3, 0.7)

    @pytest.mark.parametrize("n_max", [2, 5, 8])
    def test_l2_relations(self, n_max):
        # [L1, L3] has one term per entry; the double commutator sums two.
        space, ops = build_two_mode(n_max), dense_two_mode(n_max)
        keep = interior_indices(space)
        first, second = dense_l2_relations(
            *(in_sector_order(ops[name], n_max) for name in ("Lplus", "Lminus", "L3")), keep)
        got = l2_relation_check(n_max)
        assert got["l2_commutator"] == first
        assert abs(got["l2_double_commutator"] - second) <= 4 * EPS * 4 * (n_max + 1) ** 3

    @pytest.mark.parametrize("n_max", SMALL_NMAX)
    def test_sector_match(self, n_max):
        space, ops = build_two_mode(n_max), dense_two_mode(n_max)
        ladders = [in_sector_order(ops[name], n_max) for name in ("L3", "Lplus", "Lminus")]
        want = 0.0
        for shift in range(-n_max, n_max + 1):
            indices = [i for i in range(space.dim) if np.subtract(*space.occupations(i)) == shift]
            if len(indices) < 2:
                continue
            reference = dense_su11(abs(shift) / 2.0 + 0.5, len(indices))
            want = max(want, *(np.max(np.abs(op[np.ix_(indices, indices)] - ref))
                               for op, ref in zip(ladders, reference)))
        assert sector_match_residual(n_max)["sector_match"] == want

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_spectrum_and_phase(self, n):
        p = EvolutionParams(n, 0.9)
        u = dense_cyclic(n)
        grid = np.outer(np.arange(n), np.arange(n))
        fourier = np.exp(2j * math.pi * grid / n) / math.sqrt(n)
        eigen = np.diag(fourier.conj().T @ u @ fourier)
        args = np.angle(eigen)
        args = np.where(args > 0, args - 2.0 * math.pi, args)
        levels = np.rint((-args * n / math.pi - 1.0) / 2.0)
        assert np.array_equal(spectrum_via_dft(p), np.sort((levels + 0.5) * p.omega))
        dense_phase = np.linalg.matrix_power(u, n)[0, 0]
        assert abs(geometric_phase_check(p) - dense_phase) <= C * n * EPS


# ---------------------------------------------------------------- sectors


class TestSectorLookup:
    @pytest.mark.parametrize("n_max", [1, 4, 7])
    def test_sector_indices_match_a_basis_scan(self, n_max):
        space = build_two_mode(n_max)
        scanned = {}
        for index in range(space.dim):
            n_a, n_b = space.occupations(index)
            scanned.setdefault((n_a - n_b) / 2.0, []).append((n_a, index))
        assert sorted(scanned) == [shift / 2.0 for shift in range(-n_max, n_max + 1)]
        runs = {j: [index for _, index in sorted(members)] for j, members in sorted(scanned.items())}
        # the sectors are runs that tile the basis in ascending j, each in ascending n_A
        assert [i for run in runs.values() for i in run] == list(range(space.dim))
        for j, run in runs.items():
            rep = sector_operators(n_max, j)
            assert rep.dim == len(run)
            for name in ("L3", "Lplus", "Lminus"):
                block = dense(getattr(space, name))[np.ix_(run, run)]
                assert np.array_equal(dense(getattr(rep, name)), block)

    def test_match_residual_does_not_build_each_sector(self, monkeypatch):
        # no per-sector block: every sector of the one run at once
        calls = []
        blocks, occupations = twomode.sector_operators, twomode._occupations
        monkeypatch.setattr(twomode, "sector_operators",
                            lambda *args: calls.append("sector_operators") or blocks(*args))
        monkeypatch.setattr(twomode, "_occupations",
                            lambda *args: calls.append(args) or occupations(*args))
        assert sector_match_residual(6)["sector_match"] < 1e-12
        assert calls == [(6, -6, 7)]


# ---------------------------------------------------------------- element rows


class TestElementRows:
    @pytest.mark.parametrize("ops", [
        lambda: build_su2_rep(3.0),
        lambda: build_su2_rep(2.5),
        lambda: build_su11_rep(0.5, 9),
        lambda: build_h1_rep(6),
    ])
    def test_rows_follow_np_nonzero(self, ops):
        rep = ops()
        triple = [rep.L3, rep.Lplus, rep.Lminus]
        want = [
            (op.label, int(r), int(c), float(m[r, c].real), float(m[r, c].imag))
            for op, m in zip(triple, map(dense, triple))
            for r, c in zip(*np.nonzero(m))
        ]
        assert _element_rows(triple) == want

    def test_integer_spin_skips_the_zero_weight(self):
        rep = build_su2_rep(3.0)
        rows = [row for row in _element_rows([rep.L3]) if row[0] == "L3"]
        assert len(rows) == 6
        assert (3, 3) not in [(r, c) for _, r, c, _, _ in rows]

    def test_sector_dump_rows(self):
        rep = sector_operators(8, -1.0)
        ops = [rep.L3, rep.Lplus, rep.Lminus]
        want = [
            (op.label, int(r), int(c), float(m[r, c].real), float(m[r, c].imag))
            for op, m in zip(ops, map(dense, ops))
            for r, c in zip(*np.nonzero(m))
        ]
        assert _element_rows(ops) == want


# ---------------------------------------------------------------- past the dense ceiling


class TestPastTheDenseCeiling:
    """nmax = 200 gives dim 40 401: 26 GB per dense complex matrix."""

    N_MAX = 200

    def _traced(self, residual):
        """Run `residual` at this cutoff under tracemalloc."""
        tracemalloc.start()
        try:
            result = residual(self.N_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        return result

    def _bound(self, scale):
        return C * EPS * scale

    def test_casimir(self):
        m = self.N_MAX + 1
        residual = self._traced(casimir_interior_residual)["casimir_interior"]
        assert 0.0 <= residual <= self._bound(2 * m**2)

    def test_dissipative(self):
        m, omega, gamma = self.N_MAX + 1, 1.3, 0.7
        got = self._traced(lambda n_max: dissipative_residuals(
            n_max, DissipativeParams(omega, gamma)))
        scales = {
            "h0_vs_casimir": omega * m,
            "hi_vs_l2": gamma * m,
            "h0_hermiticity": omega * m,
            "hi_hermiticity": gamma * m,
            "h0_hi_commutator": 2 * omega * gamma * m**2,
        }
        assert got.keys() == scales.keys()
        for name, scale in scales.items():
            assert got[name] <= self._bound(scale), name

    def test_l2(self):
        m = self.N_MAX + 1
        got = self._traced(l2_relation_check)
        assert got["l2_commutator"] <= self._bound(2 * m**2)
        assert got["l2_double_commutator"] <= self._bound(4 * m**3)
