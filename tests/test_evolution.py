import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from ladderlab import EvolutionParams, geometric_phase_check, spectrum_via_dft
from ladderlab import evolution
from ladderlab.evolution import build_evolution_operator
from oracles import bands_from_entries, csr, dense, from_dense, scalar_power


def _cyclic_permutation(n: int) -> np.ndarray:
    """Dense oracle of the one-step cyclic shift: ones at ((v+1) mod N, v)."""
    perm = np.zeros((n, n))
    cols = np.arange(n)
    perm[(cols + 1) % n, cols] = 1.0
    return perm


def dense_eigensolver_energies(params: EvolutionParams) -> np.ndarray:
    """Oracle: dense eigendecomposition of U, phases unwrapped to energies."""
    u = dense(build_evolution_operator(params))
    lam = np.linalg.eigvals(u)
    args = np.angle(lam)
    args = np.where(args > 0, args - 2.0 * math.pi, args)
    n = np.rint((-args * params.n_states / math.pi - 1.0) / 2.0)
    return np.sort((n + 0.5) * params.omega)


class TestParams:
    def test_omega(self):
        p = EvolutionParams(7, 1.0)
        assert abs(p.omega * 7 * 1.0 - 2 * math.pi) < 1e-15

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_n(self, bad):
        with pytest.raises(ValueError):
            EvolutionParams(bad, 1.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            EvolutionParams(4, 0.0)


class TestOperator:
    def test_two_state_explicit(self):
        u = dense(build_evolution_operator(EvolutionParams(2, 1.0)))
        phase = np.exp(-1j * math.pi / 2)
        assert np.max(np.abs(u - phase * np.array([[0, 1], [1, 0]]))) < 1e-15
        assert np.max(np.abs(u @ u + np.eye(2))) < 1e-15  # U^2 = -1

    def test_entry_convention(self):
        u = dense(build_evolution_operator(EvolutionParams(5, 1.0)))
        phase = np.exp(-1j * math.pi / 5)
        for col in range(5):
            assert abs(u[(col + 1) % 5, col] - phase) < 1e-15
        assert np.count_nonzero(u) == 5

    def test_unitary_for_all_sizes(self):
        for n in range(2, 65):
            u = dense(build_evolution_operator(EvolutionParams(n, 0.3)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-13

    def test_seventh_power_is_minus_identity(self):
        u = dense(build_evolution_operator(EvolutionParams(7, 1.0)))
        assert np.max(np.abs(np.linalg.matrix_power(u, 7) + np.eye(7))) < 1e-12


class TestSpectrum:
    def test_n7_matches_closed_form(self):
        energies = spectrum_via_dft(EvolutionParams(7, 1.0))
        expected = (np.arange(7) + 0.5) * 2 * math.pi / 7
        assert energies.dtype == np.float64
        assert np.allclose(energies, expected, atol=1e-10)

    def test_n2_tau_pi_oracle(self):
        p = EvolutionParams(2, math.pi)
        assert abs(p.omega - 1.0) < 1e-15
        energies = spectrum_via_dft(p)
        assert np.allclose(energies, [0.5, 1.5], atol=1e-12)
        assert np.allclose(energies, dense_eigensolver_energies(p), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_matches_dense_eigensolver(self, n):
        p = EvolutionParams(n, 1.0)
        assert np.allclose(spectrum_via_dft(p), dense_eigensolver_energies(p), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 13, 40, 64])
    def test_equispaced_with_zero_point(self, n):
        p = EvolutionParams(n, 0.7)
        values = spectrum_via_dft(p)
        assert abs(values[0] - p.omega / 2) < 1e-12
        assert np.allclose(np.diff(values), p.omega, atol=1e-12)

    def test_top_level_bounded(self):
        p = EvolutionParams(9, 1.0)
        values = spectrum_via_dft(p)
        assert abs(values[-1] - (9 - 0.5) * p.omega) < 1e-12


# both read U's first column once U is checked to be exactly circulant
CIRCULANT_READERS = (spectrum_via_dft, geometric_phase_check)


class TestSpectrumRejectsDefects:
    """A step operator that is not circulant, or whose levels collide, is refused.

    The operators that are not circulant are refused by the phase check too.
    """

    @staticmethod
    def use_operator(monkeypatch, make):
        build = evolution.build_evolution_operator
        monkeypatch.setattr(evolution, "build_evolution_operator",
                            lambda p: from_dense("U", make(csr(build(p))).toarray()))

    @pytest.mark.parametrize("entry", [0, 1, 5])
    def test_perturbed_entry(self, monkeypatch, entry):
        # entry 1 sits in the first column, the others off it
        def perturb(u):
            u = u.copy()
            u.data[entry] += 1e-3
            return u

        self.use_operator(monkeypatch, perturb)
        for reader in CIRCULANT_READERS:
            with pytest.raises(ValueError, match="the step operator is not circulant"):
                reader(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("row,col", [(1, 0), (3, 2), (0, 5)])
    def test_nan_entry(self, monkeypatch, row, col):
        # (1, 0) is the first-column entry; OperatorMatrix refuses a nan, so the
        # band store is handed over bare
        def with_nan(p):
            m = dense(build_evolution_operator(p)).copy()
            m[row, col] = np.nan
            rows, cols = np.nonzero(m)
            return SimpleNamespace(bands=bands_from_entries(6, rows, cols, m[rows, cols]))

        monkeypatch.setattr(evolution, "build_evolution_operator", with_nan)
        for reader in CIRCULANT_READERS:
            with pytest.raises(ValueError, match="the step operator is not circulant"):
                reader(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("row,col", [(3, 0), (0, 3), (2, 4)])
    def test_entry_on_a_new_cyclic_diagonal(self, monkeypatch, row, col):
        # (3, 0) adds a first-column entry, so the column asks for six more
        # entries; the others sit on cyclic diagonals 3 and 4, which the column
        # leaves empty
        def extra(u):
            u = u.tolil()
            u[row, col] = u[1, 0]
            return u.tocsr()

        self.use_operator(monkeypatch, extra)
        for reader in CIRCULANT_READERS:
            with pytest.raises(ValueError, match="the step operator is not circulant"):
                reader(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("row", [0, 1, 3])
    def test_swapped_values_on_a_cyclic_diagonal(self, monkeypatch, row):
        # U + 2 U^2 is circulant with two cyclic diagonals of distinct values;
        # exchanging the two entries of one row leaves the count of entries on
        # every diagonal and the set of all values as they were, but puts a
        # foreign value on cyclic diagonals 1 and 2
        def swap(u):
            u = (u + 2.0 * (u @ u)).tolil()
            one, two = (row + 5) % 6, (row + 4) % 6
            u[row, one], u[row, two] = u[row, two], u[row, one]
            return u.tocsr()

        self.use_operator(monkeypatch, swap)
        for reader in CIRCULANT_READERS:
            with pytest.raises(ValueError, match="the step operator is not circulant"):
                reader(EvolutionParams(6, 1.0))

    def test_unswapped_circulant_passes(self, monkeypatch):
        # the control for the swap: U + 2 U^2 itself passes the circulant check,
        # and its eigenphases happen to unwrap to six distinct levels; its first
        # column holds two entries, so it is no phased shift and has no scalar
        # N-th power
        self.use_operator(monkeypatch, lambda u: (u + 2.0 * (u @ u)).tocsr())
        assert len(spectrum_via_dft(EvolutionParams(6, 1.0))) == 6
        with pytest.raises(ValueError, match="not a phased cyclic shift"):
            geometric_phase_check(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("entry", [0, 1, 5])
    def test_missing_entry(self, monkeypatch, entry):
        def drop(u):
            coo = u.tocoo()
            keep = np.arange(coo.nnz) != entry
            return sparse.csr_array((coo.data[keep], (coo.row[keep], coo.col[keep])),
                                    shape=u.shape)

        self.use_operator(monkeypatch, drop)
        for reader in CIRCULANT_READERS:
            with pytest.raises(ValueError, match="the step operator is not circulant"):
                reader(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_two_step_shift_collides(self, monkeypatch, n):
        # U^2 is circulant, but m and m + N/2 share an eigenvalue at even N
        self.use_operator(monkeypatch, lambda u: u @ u)
        with pytest.raises(ValueError, match="colliding levels"):
            spectrum_via_dft(EvolutionParams(n, 1.0))

    @pytest.mark.parametrize("n", [2, 6, 7, 16])
    def test_two_step_shift_has_a_scalar_power(self, monkeypatch, n):
        # U^2 = c P^2 is a phased shift, so (U^2)^N is c^N times the identity
        self.use_operator(monkeypatch, lambda u: u @ u)
        p = EvolutionParams(n, 1.0)
        entry = complex(dense(evolution.build_evolution_operator(p))[2 % n, 0])
        phi = geometric_phase_check(p)
        want = scalar_power(entry, n)
        assert (repr(phi.real), repr(phi.imag)) == (repr(want.real), repr(want.imag))
        assert abs(phi - 1.0) < 1e-12  # (U^2)^N = (-1)^2


class TestGeometricPhase:
    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    def test_phase_is_minus_one(self, n):
        phi = geometric_phase_check(EvolutionParams(n, 1.0))
        assert abs(phi + 1.0) < 1e-12

    def test_bare_permutation_has_order_n(self):
        for n in (3, 8):
            perm = _cyclic_permutation(n)
            assert np.max(np.abs(np.linalg.matrix_power(perm, n) - np.eye(n))) == 0.0
