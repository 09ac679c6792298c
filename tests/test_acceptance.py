"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is asserted at its stated tolerance.
"""

import math

import numpy as np

from ladderlab import (
    EvolutionParams,
    build_h1_rep,
    build_su2_rep,
    build_su11_rep,
    casimir_interior_residual,
    density_metrics,
    dissipative_residuals,
    geometric_phase_check,
    holstein_primakoff,
    l2_relation_check,
    run_contraction_study,
    scaled_ladders,
    sector_match_residual,
    simulate_torus,
    spectrum_via_dft,
    thooft_system,
    touch_points,
)
from ladderlab.contraction import _deviations, deformed_identity_residuals
from ladderlab.orbits import CircleDynamics
from ladderlab.twomode import DissipativeParams
from oracles import (anticommutator, build_two_mode, dense, evolution_bands, from_dense,
                     matrix_exponential)

TWO_PI = 2.0 * math.pi
GOLDEN_ROTATION = math.pi * (math.sqrt(5.0) - 1.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_spectrum():
    spec7 = spectrum_via_dft(EvolutionParams(7, 1.0))
    expected7 = (np.arange(7) + 0.5) * TWO_PI / 7
    worst7 = float(np.max(np.abs(spec7 - expected7)))

    worst_spacing = 0.0
    worst_ground = 0.0
    for n in range(2, 65):
        p = EvolutionParams(n, 1.0)
        values = spectrum_via_dft(p)
        worst_ground = max(worst_ground, abs(values[0] - p.omega / 2))
        worst_spacing = max(worst_spacing, float(np.max(np.abs(np.diff(values) - p.omega))))

    ok = worst7 < 1e-10 and worst_spacing < 1e-10 and worst_ground < 1e-10
    report(
        "criterion 1: (n+1/2) omega spectrum, equispaced with ground omega/2 for N=2..64",
        ok,
        f"N=7 err {worst7:.2e}, spacing err {worst_spacing:.2e}, ground err {worst_ground:.2e}",
    )


def test_criterion_2_period_phase():
    worst = 0.0
    for n in range(2, 65):
        phi = geometric_phase_check(EvolutionParams(n, 1.0))
        worst = max(worst, abs(phi + 1.0))
    report(
        "criterion 2: U^N proportional to identity with factor -1 for N=2..64",
        worst < 1e-12,
        f"worst |phi + 1| = {worst:.2e}",
    )


def test_criterion_3_exact_identities():
    worst_comm, worst_ham = 0.0, 0.0
    labels = [x / 2.0 for x in range(1, 51)]  # l = 1/2, 1, ..., 25
    for l in labels:
        rep = build_su2_rep(l)
        for tau in (0.01, 0.1, 1.0, math.pi):
            residuals = deformed_identity_residuals(rep, tau)
            worst_comm = max(worst_comm, residuals["deformed_commutator"])
            worst_ham = max(worst_ham, residuals["hamiltonian_decomposition"])
    ok = worst_comm < 1e-10 and worst_ham < 1e-10
    report(
        "criterion 3: deformed-commutator and Hamiltonian identities, l <= 25 x four tau",
        ok,
        f"worst residuals {worst_comm:.2e}, {worst_ham:.2e}",
    )


def test_criterion_4_contraction_rates():
    params = [5.0, 10.0, 20.0, 40.0, 80.0]
    reports = [run_contraction_study(family, params, 11) for family in ("su2", "su11")]
    closed_form = np.arange(11) / np.array(params)[:, None]
    worst = max(float(np.max(np.abs(r.deviations - closed_form))) for r in reports)
    slopes = [r.fitted_slope for r in reports]
    ok = worst < 1e-12 and all(-1.01 <= s <= -0.99 for s in slopes)
    report(
        "criterion 4: deviations equal n/l and n/k with log-log slope -1",
        ok,
        f"worst closed-form gap {worst:.2e}, slopes {slopes[0]:.4f}/{slopes[1]:.4f}",
    )


def test_criterion_5_holstein_primakoff():
    dim = 64
    rep = build_su11_rep(0.5, dim)
    a, adag = holstein_primakoff(rep)
    osc = build_h1_rep(dim)
    entry_gap = max(
        np.max(np.abs(dense(a) - dense(osc.Lminus))),
        np.max(np.abs(dense(adag) - dense(osc.Lplus))),
    )
    half = 0.5 * dense(anticommutator(adag, a))
    off_diag = np.max(np.abs(half - np.diag(np.diag(half))))
    interior = np.diag(half).real[: dim - 1]  # top entry is truncation-contaminated
    spectrum_gap = float(np.max(np.abs(interior - (np.arange(dim - 1) + 0.5))))
    ok = entry_gap < 1e-12 and off_diag < 1e-12 and spectrum_gap < 1e-12
    report(
        "criterion 5: k=1/2 mapping equals h(1) entrywise; (1/2){adag,a} spectrum n+1/2",
        ok,
        f"entry gap {entry_gap:.2e}, spectrum gap {spectrum_gap:.2e}",
    )


def test_criterion_6_two_mode_structure():
    casimir_gap = casimir_interior_residual(10)["casimir_interior"]
    sector_gap = sector_match_residual(10)["sector_match"]
    residuals = dissipative_residuals(10, DissipativeParams(Omega=1.0, Gamma=0.5))
    ham_gap = max(residuals["h0_vs_casimir"], residuals["hi_vs_l2"])
    rotation = l2_relation_check(10)
    res1, res2 = rotation["l2_commutator"], rotation["l2_double_commutator"]
    ok = (
        casimir_gap < 1e-12
        and sector_gap < 1e-12
        and ham_gap < 1e-12
        and res1 < 1e-12
        and res2 < 1e-12
    )
    report(
        "criterion 6: two-mode Casimir, |j|<=3 sectors, H0/HI, rotation commutators at n_max=10",
        ok,
        f"casimir {casimir_gap:.2e}, sectors {sector_gap:.2e}, "
        f"H {ham_gap:.2e}, rotation {res1:.2e}/{res2:.2e}",
    )


def test_criterion_7_orbits():
    # N=7 single-cover system
    trace = touch_points(thooft_system(7), 7)
    radii = trace.points[:, 0] ** 2 + trace.points[:, 1] ** 2
    radius_err = float(np.max(np.abs(radii - 1.0)))
    expected = sorted((TWO_PI * j / 7) % TWO_PI for j in range(1, 8))
    angle_err = float(np.max(np.abs(np.sort(trace.angles) - expected)))
    closure_ok = trace.period_steps == 7 and len(trace.angles) == 7

    # irrational two-circle ratio: no touch angle revisited over 1e4 steps
    irr = CircleDynamics.irrational(1.0, 5.0 / 3.0 + math.pi / 40.0)
    angles = np.sort(touch_points(irr, 10**4).angles)
    min_gap = float(
        min(np.min(np.diff(angles)), angles[0] + TWO_PI - angles[-1])
    )

    # golden-ratio torus rotation: dense, with strictly decreasing gaps
    gaps = {
        steps: density_metrics(simulate_torus(GOLDEN_ROTATION, GOLDEN_ROTATION, steps))
        for steps in (100, 1000, 10000)
    }
    dense_ok = max(gaps[10000]) < 1e-2
    monotone_ok = (
        gaps[100][0] > gaps[1000][0] > gaps[10000][0]
        and gaps[100][1] > gaps[1000][1] > gaps[10000][1]
    )

    ok = (
        radius_err < 1e-12
        and angle_err < 1e-12
        and closure_ok
        and min_gap > 1e-9
        and dense_ok
        and monotone_ok
    )
    report(
        "criterion 7: 7-site closure, irrational non-recurrence, golden torus density",
        ok,
        f"radius {radius_err:.2e}, angles {angle_err:.2e}, min gap {min_gap:.2e}, "
        f"torus gap {max(gaps[10000]):.2e}",
    )


def test_criterion_8_oracle_equivalence():
    checks = []

    # spin-1/2 ladder vs hand-built Pauli matrices (|n> ordering)
    rep_half = build_su2_rep(0.5)
    checks.append(
        np.max(np.abs(dense(rep_half.Lplus) - np.array([[0, 0], [1, 0]], dtype=complex))) < 1e-15
    )

    # contraction deviation vs explicit matrix-vector evaluation
    rep = build_su11_rep(7.0, 12)
    a, adag = scaled_ladders(rep)
    comm = dense(a) @ dense(adag) - dense(adag) @ dense(a)
    e4 = np.zeros(12)
    e4[4] = 1.0
    brute = float(np.linalg.norm(comm @ e4 - e4))
    checks.append(abs(_deviations(rep)[4] - brute) < 1e-15)

    # mapping composition at n=3: adag|3> = 2|4>
    hp_a, hp_adag = holstein_primakoff(build_su11_rep(0.5, 8))
    e3 = np.zeros(8)
    e3[3] = 1.0
    out = dense(hp_adag) @ e3
    checks.append(abs(out[4] - 2.0) < 1e-12 and abs(np.linalg.norm(out) - 2.0) < 1e-12)

    # evolution at N=2: U = e^{-i pi/2} (0 1; 1 0), U^2 = -1
    u = np.exp(-1j * math.pi / 2) * np.array([[0.0, 1.0], [1.0, 0.0]])
    checks.append(
        np.max(np.abs(dense(evolution_bands(EvolutionParams(2, 1.0))) - u)) < 1e-15
        and np.max(np.abs(u @ u + np.eye(2))) < 1e-15
    )

    # DFT spectrum vs dense eigensolver at N=12
    p = EvolutionParams(12, 0.7)
    lam = np.linalg.eigvals(dense(evolution_bands(p)))
    args = np.angle(lam)
    args = np.where(args > 0, args - TWO_PI, args)
    want = np.sort((np.rint((-args * 12 / math.pi - 1) / 2) + 0.5) * p.omega)
    checks.append(float(np.max(np.abs(spectrum_via_dft(p) - want))) < 1e-10)

    # torus lcm closure: 35 jumps of (2pi/5, 2pi/7) land on the start
    angles = simulate_torus(TWO_PI / 5, TWO_PI / 7, 35)
    checks.append(float(np.max(np.abs(angles[-1]))) < 1e-12)

    # sector restrictions vs directly built series, every j
    checks.append(sector_match_residual(8)["sector_match"] < 1e-12)

    # matrix exponential vs plain Taylor series on a fixed nilpotent-ish case
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    series = np.eye(2) + m  # exact: m is nilpotent
    checks.append(np.max(np.abs(dense(matrix_exponential(from_dense("N", m))) - series)) < 1e-15)

    # interior Casimir eigenvalue vs occupation difference at (3, 1)
    space = build_two_mode(6)
    c2 = (
        0.25 * np.eye(space.dim)
        + dense(space.L3) @ dense(space.L3)
        - 0.5
        * (
            dense(space.Lplus) @ dense(space.Lminus)
            + dense(space.Lminus) @ dense(space.Lplus)
        )
    )
    idx = space.index(3, 1)
    checks.append(abs(c2[idx, idx].real - 1.0) < 1e-12)

    ok = all(checks)
    report(
        "criterion 8: independent brute-force oracles agree with the implementations",
        ok,
        f"{sum(checks)}/{len(checks)} oracle comparisons passed",
    )
