import math

import numpy as np
import pytest

from ladderlab import EvolutionParams, geometric_phase_check, spectrum_via_dft
from ladderlab import evolution
from ladderlab.evolution import build_evolution_operator
from oracles import band_phase, band_spectrum, dense, evolution_bands, scalar_power


def _cyclic_permutation(n: int) -> np.ndarray:
    """Dense oracle of the one-step cyclic shift: ones at ((v+1) mod N, v)."""
    perm = np.zeros((n, n))
    cols = np.arange(n)
    perm[(cols + 1) % n, cols] = 1.0
    return perm


def dense_eigensolver_energies(params: EvolutionParams) -> np.ndarray:
    """Oracle: dense eigendecomposition of U, phases unwrapped to energies."""
    u = dense(evolution_bands(params))
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
        u = dense(evolution_bands(EvolutionParams(2, 1.0)))
        phase = np.exp(-1j * math.pi / 2)
        assert np.max(np.abs(u - phase * np.array([[0, 1], [1, 0]]))) < 1e-15
        assert np.max(np.abs(u @ u + np.eye(2))) < 1e-15  # U^2 = -1

    def test_entry_convention(self):
        u = dense(evolution_bands(EvolutionParams(5, 1.0)))
        phase = np.exp(-1j * math.pi / 5)
        for col in range(5):
            assert abs(u[(col + 1) % 5, col] - phase) < 1e-15
        assert np.count_nonzero(u) == 5

    def test_unitary_for_all_sizes(self):
        for n in range(2, 65):
            u = dense(evolution_bands(EvolutionParams(n, 0.3)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-13

    def test_seventh_power_is_minus_identity(self):
        u = dense(evolution_bands(EvolutionParams(7, 1.0)))
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


class TestColumn:
    """U is held as its first column, with the bits of the band form's first column."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_first_column_of_the_band_form(self, n):
        p = EvolutionParams(n, 0.8)
        column = build_evolution_operator(p)
        assert column.dtype == complex and column.shape == (n,)
        assert np.array_equal(column, dense(evolution_bands(p))[:, 0])
        assert np.flatnonzero(column).tolist() == [1]

    @pytest.mark.parametrize("n", [*range(2, 65), 2**20, 2**22])
    def test_energies_and_phase_match_the_band_path(self, n):
        p = EvolutionParams(n, 1.0)
        assert np.array_equal(spectrum_via_dft(p), band_spectrum(p))
        phi, want = geometric_phase_check(p), band_phase(p)
        assert (repr(phi.real), repr(phi.imag)) == (repr(want.real), repr(want.imag))


class TestSpectrumRejectsDefects:
    """A step operator with a non-finite entry, or whose levels collide, is refused.

    Each case patches the column builder.  The non-finite entries are
    refused by the phase check too.
    """

    @staticmethod
    def use_column(monkeypatch, make):
        build = evolution.build_evolution_operator
        monkeypatch.setattr(evolution, "build_evolution_operator", lambda p: make(build(p)))

    @staticmethod
    def times_u(column):
        # U times a vector is the phased one-step shift: (U c)[v] = e^{-i pi/N} c[v - 1]
        return np.roll(column, 1) * column[1]

    @pytest.mark.parametrize("row,value", [(1, np.nan), (0, np.nan), (5, np.nan),
                                           (1, complex(0.0, np.inf))])
    def test_non_finite_entry(self, monkeypatch, row, value):
        # row 1 holds the phase, the other rows a zero; a nan reaching the FFT
        # would read as colliding levels, and one reaching the squaring as phi
        def with_value(column):
            column[row] = value
            return column

        self.use_column(monkeypatch, with_value)
        for reader in (spectrum_via_dft, geometric_phase_check):
            with pytest.raises(ValueError, match="the step operator has a non-finite entry"):
                reader(EvolutionParams(6, 1.0))

    def test_two_entry_column_has_levels_but_no_scalar_power(self, monkeypatch):
        # U + 2 U^2: its eigenphases happen to unwrap to six distinct levels;
        # its first column holds two entries, so it is no phased shift and has
        # no scalar N-th power
        self.use_column(monkeypatch, lambda c: c + 2.0 * self.times_u(c))
        assert len(spectrum_via_dft(EvolutionParams(6, 1.0))) == 6
        with pytest.raises(ValueError, match="not a phased cyclic shift"):
            geometric_phase_check(EvolutionParams(6, 1.0))

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_two_step_shift_collides(self, monkeypatch, n):
        # U^2 is circulant, but m and m + N/2 share an eigenvalue at even N
        self.use_column(monkeypatch, self.times_u)
        with pytest.raises(ValueError, match="colliding levels"):
            spectrum_via_dft(EvolutionParams(n, 1.0))

    @pytest.mark.parametrize("n", [2, 6, 7, 16])
    def test_two_step_shift_has_a_scalar_power(self, monkeypatch, n):
        # U^2 = c P^2 is a phased shift, so (U^2)^N is c^N times the identity
        self.use_column(monkeypatch, self.times_u)
        p = EvolutionParams(n, 1.0)
        column = evolution.build_evolution_operator(p)
        assert np.flatnonzero(column).tolist() == [2 % n]
        phi = geometric_phase_check(p)
        want = scalar_power(complex(column[2 % n]), n)
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
