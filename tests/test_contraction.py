import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import (
    build_h1_rep,
    build_su2_rep,
    build_su11_rep,
    holstein_primakoff,
    run_contraction_study,
    scaled_ladders,
)
from ladderlab import contraction
from ladderlab.algebra import _ladder_envelopes
from ladderlab.contraction import _deviations, deformed_identity_residuals
from ladderlab.operators import Bands, OperatorMatrix
from oracles import Bounded, anticommutator, dense, full_irrep_deviations, hermiticity_residual


def basis_vector(dim, n):
    e = np.zeros(dim)
    e[n] = 1.0
    return e


class TestScaledLadders:
    def test_su2_vacuum_element_is_one(self):
        # <1|adag|0> = sqrt((2l - 0)/2l) * sqrt(1) = 1 for any l
        _, adag = scaled_ladders(build_su2_rep(2))
        assert abs(dense(adag)[1, 0] - 1.0) < 1e-15

    def test_su11_fundamental_element(self):
        # k=1/2: <4|adag|3> = (3+1)/sqrt(2k) = 4
        _, adag = scaled_ladders(build_su11_rep(0.5, 8))
        assert abs(dense(adag)[4, 3] - 4.0) < 1e-12

    def test_su2_elements_approach_canonical(self):
        osc = build_h1_rep(6)
        for l, tol in ((10, 0.3), (1000, 3e-3)):
            _, adag = scaled_ladders(build_su2_rep(l))
            gap = np.max(np.abs(dense(adag)[:6, :6] - dense(osc.Lplus)))
            assert gap < tol

    def test_heisenberg_rejected(self):
        with pytest.raises(ValueError):
            scaled_ladders(build_h1_rep(4))


class TestContractionDeviation:
    def test_su2_closed_form(self):
        # brute-force matrix evaluation agrees with n/l exactly
        rep = build_su2_rep(10)
        assert abs(_deviations(rep)[2] - 0.2) < 1e-12

    def test_su11_closed_form(self):
        rep = build_su11_rep(20, 12)
        assert abs(_deviations(rep)[4] - 0.2) < 1e-12

    def test_vacuum_deviation_vanishes(self):
        for rep in (build_su2_rep(3), build_su11_rep(1.5, 9)):
            assert _deviations(rep)[0] < 1e-14

    @pytest.mark.parametrize("family", ["su2", "su11"])
    def test_matches_brute_force_vector_norm(self, family):
        rep = build_su2_rep(8) if family == "su2" else build_su11_rep(8, 12)
        a, adag = scaled_ladders(rep)
        comm = dense(a) @ dense(adag) - dense(adag) @ dense(a)
        for n in range(6):
            direct = np.linalg.norm(comm @ basis_vector(rep.dim, n) - basis_vector(rep.dim, n))
            assert abs(_deviations(rep)[n] - direct) < 1e-15

    def test_su2_top_state_allowed(self):
        # complete irrep: the closed form holds through n = dim - 1
        assert abs(_deviations(build_su2_rep(5))[10] - 2.0) < 1e-12

    def test_su11_closed_form_ends_at_the_truncation_row(self):
        # n/k holds through the last interior state; the truncated top row breaks it
        deviations = _deviations(build_su11_rep(1, 8))
        assert abs(deviations[6] - 6.0) < 1e-12
        assert abs(deviations[7] - 7.0) > 1.0


class TestContractionStudy:
    def test_su2_sweep_frozen_values(self):
        report = run_contraction_study("su2", [5, 10, 20, 40], 4)
        assert np.allclose(report.deviations[:, 3], [0.6, 0.3, 0.15, 0.075], atol=1e-12)
        assert abs(report.fitted_slope + 1.0) < 1e-9
        assert report.fit_residual < 1e-9

    def test_su11_sweep_frozen_values(self):
        report = run_contraction_study("su11", [1, 2, 4, 8], 2)
        assert np.allclose(report.deviations[:, 1], [1.0, 0.5, 0.25, 0.125], atol=1e-12)
        assert abs(report.fitted_slope + 1.0) < 1e-9

    def test_table_complete(self):
        report = run_contraction_study("su11", [2, 4, 8], 5)
        assert report.deviations.shape == (3, 5)
        assert np.all(report.deviations >= 0)

    def test_slope_within_band_for_decade_sweeps(self):
        for family in ("su2", "su11"):
            report = run_contraction_study(family, [5, 10, 20, 40, 80], 4)
            assert -1.01 <= report.fitted_slope <= -0.99

    def test_fit_rejected_below_three_points(self):
        report = run_contraction_study("su2", [5, 10], 3)
        assert math.isnan(report.fitted_slope)
        assert math.isnan(report.fit_residual)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_contraction_study("su2", [], 3)
        for params in ([10, 5], [5, 5, 5], [5, 5, 10]):
            with pytest.raises(ValueError, match="strictly ascending"):
                run_contraction_study("su2", params, 3)
        with pytest.raises(ValueError):
            run_contraction_study("other", [1, 2], 3)
        with pytest.raises(ValueError):
            run_contraction_study("su2", [1, 2, 4], 1)

    @pytest.mark.parametrize("interior", [2, 3, 4, 5])
    def test_su2_sweep_bitwise_equals_full_irreps(self, interior):
        # the sweep builds the leading interior + 1 levels of each irrep; every
        # tabulated deviation must carry the digits of the whole irrep's
        labels = [l for l in [*np.arange(0.5, 400.5, 0.5), 1234.5, 1e4]
                  if 2 * l + 1 >= interior]
        report = run_contraction_study("su2", labels, interior)
        expected = np.array([full_irrep_deviations(l, interior) for l in labels])
        assert report.deviations.tobytes() == expected.tobytes()

    def test_anticommutator_approaches_oscillator_ladder(self):
        # (1/2){adag, a}|n> -> (n + 1/2)|n> as the label grows
        gaps = []
        for l in (10, 100):
            rep = build_su2_rep(l)
            a, adag = scaled_ladders(rep)
            half = 0.5 * dense(anticommutator(adag, a))
            n = 3
            gaps.append(abs(half[n, n].real - (n + 0.5)))
        assert gaps[1] < gaps[0] / 5
        # closed form of the gap is n^2/(2l)
        assert abs(gaps[0] - 9 / 20) < 1e-12


class TestHolsteinPrimakoff:
    def test_composition_example(self):
        # adag|3> = L+ f(L3)|3> = 4/sqrt(4) |4> = 2|4>
        rep = build_su11_rep(0.5, 8)
        _, adag = holstein_primakoff(rep)
        out = dense(adag) @ basis_vector(8, 3)
        assert abs(out[4] - 2.0) < 1e-12
        assert np.linalg.norm(out) - 2.0 < 1e-12

    def test_vacuum_annihilated(self):
        a, _ = holstein_primakoff(build_su11_rep(0.5, 6))
        assert np.linalg.norm(dense(a) @ basis_vector(6, 0)) == 0.0

    def test_entrywise_equals_oscillator_ladders(self):
        rep = build_su11_rep(0.5, 64)
        a, adag = holstein_primakoff(rep)
        osc = build_h1_rep(64)
        assert np.max(np.abs(dense(a) - dense(osc.Lminus))) < 1e-12
        assert np.max(np.abs(dense(adag) - dense(osc.Lplus))) < 1e-12

    def test_half_anticommutator_spectrum_on_interior(self):
        rep = build_su11_rep(0.5, 32)
        a, adag = holstein_primakoff(rep)
        half = 0.5 * dense(anticommutator(adag, a))
        diag = np.diag(half).real
        assert np.allclose(diag[:31], np.arange(31) + 0.5, atol=1e-12)
        # matches the L3 eigenvalues n + 1/2 of the weight-1/2 series
        assert np.allclose(diag[:31], np.diag(dense(rep.L3)).real[:31], atol=1e-12)

    def test_requires_fundamental_weight(self):
        with pytest.raises(ValueError):
            holstein_primakoff(build_su11_rep(1.0, 8))
        with pytest.raises(ValueError):
            holstein_primakoff(build_su2_rep(2))


def deformed_operators(rep, tau):
    """x, p and H of `rep` at tau, built as `deformed_identity_residuals` builds them."""
    operators = contraction._deformed_operators(
        rep.kind.l, contraction._scales(rep.kind.l, tau),
        rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands, Bands.identity(rep.dim))
    return [OperatorMatrix(label, bands) for label, bands in zip("xpH", operators)]


class TestPositionMomentum:
    def test_hermitian(self):
        xhat, phat, _ = deformed_operators(build_su2_rep(3), tau=0.7)
        assert hermiticity_residual(xhat) < 1e-15
        assert hermiticity_residual(phat) < 1e-15

    def test_spin_half_tau_pi_oracle(self):
        # alpha = 1, beta = -1: x = sigma1/2, p = -sigma2/2, with the Pauli
        # matrices written in the |n> ordering (n=0 is m=-1/2)
        xhat, phat, _ = deformed_operators(build_su2_rep(0.5), tau=math.pi)
        sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
        sigma2_flipped = np.array([[0, 1j], [-1j, 0]])
        assert np.max(np.abs(dense(xhat) - sigma1 / 2)) < 1e-15
        assert np.max(np.abs(dense(phat) + sigma2_flipped / 2)) < 1e-15

    def test_scaling_pair_product_invariant(self):
        # x[1,0] = alpha L+[1,0]/2 and p[1,0] = beta L+[1,0]/(2i), so
        # alpha beta = 4i x[1,0] p[1,0] / L+[1,0]^2, which must be -2/(2l+1)
        for tau in (0.01, 0.1, 1.0, math.pi):
            for l in (0.5, 3, 22.5):
                rep = build_su2_rep(l)
                xhat, phat, _ = deformed_operators(rep, tau)
                x, p, lplus = (dense(op)[1, 0] for op in (xhat, phat, rep.Lplus))
                product = 4j * x * p / lplus**2
                assert abs(product * (2 * l + 1) / (-2) - 1.0) < 1e-14

    def test_scaling_pair_validation(self):
        # at 5e-324 alpha underflows to 0 and beta overflows
        for tau in (-1.0, 0.0, math.nan, 5e-324):
            with pytest.raises(ValueError):
                deformed_identity_residuals(build_su2_rep(3), tau)

    def test_requires_su2(self):
        with pytest.raises(ValueError):
            deformed_identity_residuals(build_su11_rep(1, 8), tau=1.0)


def deformed_commutator_check(rep, tau):
    return deformed_identity_residuals(rep, tau)["deformed_commutator"]


def hamiltonian_identity_check(rep, tau):
    return deformed_identity_residuals(rep, tau)["hamiltonian_decomposition"]


class TestOperatorIdentities:
    def test_deformed_commutator_exact_l3(self):
        assert deformed_commutator_check(build_su2_rep(3), tau=1.0) < 1e-12

    def test_deformed_commutator_spin_half_explicit(self):
        # 2x2 oracle: [x, p] at l=1/2, tau=pi from hand-built matrices
        rep = build_su2_rep(0.5)
        tau = math.pi
        xhat, phat, h = (dense(op) for op in deformed_operators(rep, tau))
        lhs = xhat @ phat - phat @ xhat
        rhs = 1j * (np.eye(2) - (tau / math.pi) * h)
        assert np.max(np.abs(lhs - rhs)) < 1e-15
        # and the same matrices by hand: [sigma1/2, -sigma2/2] = -i sigma3/2
        sigma3 = np.diag([-1.0, 1.0])
        assert np.max(np.abs(lhs + 1j * sigma3 / 2)) < 1e-15

    def test_deformation_visible_at_top_state(self):
        # eigenvalue of [x, p]/i is 1 - (2n+1)/N, negative at the top for l >= 1
        rep = build_su2_rep(6)
        xhat, phat, _ = (dense(op) for op in deformed_operators(rep, tau=0.5))
        comm = (xhat @ phat - phat @ xhat) / 1j
        diag = np.diag(comm).real
        n = np.arange(rep.dim)
        assert np.allclose(diag, 1.0 - (2.0 * n + 1.0) / rep.dim, atol=1e-13)
        assert diag[-1] < 0

    def test_hamiltonian_identity_exact_l3(self):
        assert hamiltonian_identity_check(build_su2_rep(3), tau=1.0) < 1e-12

    def test_hamiltonian_identity_large_l_small_tau(self):
        assert hamiltonian_identity_check(build_su2_rep(25), tau=0.01) < 1e-10

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, math.pi])
    def test_both_identities_across_tau(self, tau):
        for l in (0.5, 4, 12.5, 25, 50):
            rep = build_su2_rep(l)
            assert deformed_commutator_check(rep, tau) < 1e-10
            assert hamiltonian_identity_check(rep, tau) < 1e-10

    def test_correction_term_vanishes_in_contraction(self):
        # (tau/2pi)(omega^2/4 + H^2) on a fixed state, omega fixed at 1
        def correction_norm(l, n):
            big_n = int(2 * l + 1)
            tau = 2 * math.pi / big_n  # omega = 2 pi/(N tau) = 1
            rep = build_su2_rep(l)
            h = dense(deformed_operators(rep, tau)[2])
            corr = (tau / (2 * math.pi)) * (1.0 / 4.0 * np.eye(big_n) + h @ h)
            e = basis_vector(big_n, n)
            return np.linalg.norm(corr @ e)

        values = [correction_norm(l, n=2) for l in (5, 50, 500)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-2

    def test_energy_ordering_unchanged_by_scaling(self):
        # scaling touches only the off-diagonal ladders; H is untouched
        rep = build_su2_rep(4)
        h = deformed_operators(rep, tau=0.3)[2]
        before = np.sort(np.linalg.eigvalsh(dense(h)))
        scaled_ladders(rep)
        after = np.sort(np.linalg.eigvalsh(dense(deformed_operators(rep, tau=0.3)[2])))
        assert np.array_equal(before, after)
        assert np.all(np.diff(before) > 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(twice=st.integers(1, 24), exponent=st.floats(-100.0, 100.0))
def test_envelopes_bound_every_operator_the_deformed_identities_form(twice, exponent):
    l, tau = twice / 2, 10.0**exponent
    rep = build_su2_rep(l)
    operators = (rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands, Bands.identity(rep.dim))
    envelopes = _ladder_envelopes(rep.kind, rep.dim)
    scales = contraction._scales(l, tau)
    for identity in contraction._deformed_identities(l, tau, scales,
                                                     *map(Bounded, operators, envelopes)):
        identity.residual()
