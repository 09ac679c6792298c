"""Parameter dataclasses and orbit builders reject non-finite input."""

import math
import re

import numpy as np
import pytest

from ladderlab import (
    DissipativeParams,
    EvolutionParams,
    OperatorMatrix,
    build_h1_rep,
    build_su2_rep,
    build_su11_rep,
    casimir_interior_residual,
    check_algebra_relations,
    density_metrics,
    dissipative_residuals,
    holstein_primakoff,
    l2_relation_check,
    run_contraction_study,
    scaled_ladders,
    sector_operators,
    simulate_torus,
    thooft_system,
    touch_points,
)
from ladderlab.algebra import Su11, relations_in_float_range
from ladderlab.contraction import deformed_identities_in_float_range, deformed_identity_residuals
from ladderlab.operators import Bands
from ladderlab.orbits import CircleDynamics, continuous_position
from ladderlab.twomode import dissipative_in_float_range

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tau", NON_FINITE)
def test_evolution_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        EvolutionParams(8, tau)


# omega = 2 pi/(N tau) overflows to inf or underflows to 0: the library's
# spectrum once came back as [inf inf] and [0. 0.]
@pytest.mark.parametrize("tau, omega", [(1e-320, "inf"), (1e308, "0.0")])
def test_evolution_omega_beyond_the_float_range(tau, omega):
    with pytest.raises(ValueError, match=f"omega = 2 pi/\\(N tau\\) = {omega} puts the "
                                         "energies beyond the float range"):
        EvolutionParams(2, tau)


@pytest.mark.parametrize("tau", NON_FINITE)
def test_scaling_and_hamiltonian_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        deformed_identity_residuals(build_su2_rep(3.0), tau)


@pytest.mark.parametrize("value", NON_FINITE)
def test_dissipative_omega_and_gamma(value):
    with pytest.raises(ValueError, match="finite"):
        DissipativeParams(Omega=value, Gamma=0.5)
    with pytest.raises(ValueError, match="finite"):
        DissipativeParams(Omega=1.0, Gamma=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_circle_frequencies(value):
    with pytest.raises(ValueError, match="finite"):
        CircleDynamics(value, 1.0, None)
    with pytest.raises(ValueError, match="finite"):
        CircleDynamics(1.0, value, None)


@pytest.mark.parametrize("value", NON_FINITE)
def test_torus_rates_start_angles_and_step(value):
    for args in ((value, 1.0, 5), (1.0, value, 5)):
        with pytest.raises(ValueError, match="finite"):
            simulate_torus(*args)
    with pytest.raises(ValueError, match="finite"):
        simulate_torus(1.0, 1.0, 5, (value, 0.0))


# Each of these once came back from the library although the CLI refused it:
# omega = 2 pi/((2l + 1) tau) underflowed to 0 and the deformed commutator read
# 1.5, a third angle was dropped, the ratios and an infinite N raised
# ZeroDivisionError or OverflowError, and the relations and the dissipative
# table read nan.
@pytest.mark.parametrize("call, match", [
    (lambda: deformed_identity_residuals(build_su2_rep(0.5), 1e308), "float range"),
    (lambda: simulate_torus(1.0, 2.0, steps=2, phi0=(0.0, 0.5, 9.0)), "two angles, got 3"),
    (lambda: CircleDynamics.rational(1.0, 1, 0), "den must be nonzero"),
    (lambda: CircleDynamics.rational(1.0, 10**400, 10**400 + 1), "float range"),
    (lambda: CircleDynamics.rational(1.0, 10**308, 1, 1.7e308), "float range"),
    (lambda: check_algebra_relations(build_su11_rep(1e300, 3), 2), "float range"),
    (lambda: dissipative_residuals(3, DissipativeParams(1e308, 1e308)), "float range"),
    (lambda: EvolutionParams(math.inf, 1.0), "integer"),
], ids=["identities-omega", "torus-phi0", "ratio-den-0", "ratio-huge", "ratio-offset",
        "su11-relations", "dissipative", "evolution-n-inf"])
def test_the_library_refuses_what_the_cli_refuses(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# each float-range guard at a corpus input just past its edge, and at its neighbour inside
@pytest.mark.parametrize("guard, outside, inside", [
    (relations_in_float_range, (Su11(1.265e205), 3), (Su11(1.264e205), 3)),
    (deformed_identities_in_float_range, (3.0, 4.3e-154), (3.0, 5e-154)),
    (deformed_identities_in_float_range, (3.0, 9e307), (3.0, 2.5e307)),
    (dissipative_in_float_range, (2, DissipativeParams(4.741e153, 4.741e153)),
     (2, DissipativeParams(4.740e153, 4.740e153))),
], ids=["su11-relations", "identities-small-tau", "identities-large-tau", "dissipative"])
def test_float_range_guard_raises_only_past_its_edge(guard, outside, inside):
    with pytest.raises(ValueError, match="beyond the float range"):
        guard(*outside)
    assert guard(*inside) is None


# Every count the library reads is finite, integer-valued and at least its
# floor, refused with ValueError naming the argument: each of these was once
# truncated (3.7 states built 3, and N = 7.5 gave q = 5/7), or raised
# OverflowError or numpy's "cannot convert float NaN to integer".
@pytest.mark.parametrize("call, name", [
    (lambda: build_h1_rep(3.7), "dim"),
    (lambda: build_su11_rep(1.5, 4.9), "dim"),
    (lambda: build_h1_rep(math.inf), "dim"),
    (lambda: thooft_system(7.5), "n_sites"),
    (lambda: check_algebra_relations(build_h1_rep(3), 2.5), "interior"),
    (lambda: run_contraction_study("su2", [5, 10], 2.5), "interior"),
    (lambda: touch_points(thooft_system(7), math.inf), "count"),
    (lambda: touch_points(thooft_system(7), math.nan), "count"),
    (lambda: touch_points(thooft_system(7), 2.5), "count"),
    (lambda: simulate_torus(1.0, 2.0, 4.5), "steps"),
    (lambda: EvolutionParams(10**400, 1.0), "n_states"),
    (lambda: EvolutionParams(8.5, 1.0), "n_states"),
    (lambda: casimir_interior_residual(2.5), "n_max"),
    (lambda: sector_operators(2.5, 0), "n_max"),
], ids=["h1-dim", "su11-dim", "h1-dim-inf", "thooft-n", "relations-interior",
        "contraction-interior", "touch-count-inf", "touch-count-nan", "touch-count",
        "torus-steps", "evolution-n-huge", "evolution-n", "casimir-n-max", "sector-n-max"])
def test_a_count_must_be_a_finite_integer(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite integer, got "):
        call()


# an integer below its floor keeps the text the corpus pins
@pytest.mark.parametrize("call, text", [
    (lambda: build_h1_rep(1), "dim must be at least 2"),
    (lambda: build_su11_rep(1.5, 1.0), "dim must be at least 2"),
    (lambda: thooft_system(2), "n_sites must be >= 3"),
    (lambda: check_algebra_relations(build_h1_rep(2), 3), "interior must be in 1..2"),
    (lambda: check_algebra_relations(build_h1_rep(2), 0), "interior must be in 1..2"),
    (lambda: run_contraction_study("su2", [5, 10], 1), "interior must be at least 2"),
    (lambda: touch_points(thooft_system(7), 0), "count must be >= 1"),
    (lambda: simulate_torus(1.0, 2.0, 0), "steps must be >= 1"),
    (lambda: EvolutionParams(1, 1.0), "n_states must be an integer >= 2"),
    (lambda: casimir_interior_residual(0), "n_max must be >= 1"),
], ids=["h1-dim", "su11-dim", "thooft-n", "relations-interior-high", "relations-interior-low",
        "contraction-interior", "touch-count", "torus-steps", "evolution-n", "casimir-n-max"])
def test_an_integer_below_its_floor_keeps_its_text(call, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()


# The two-mode cutoff ends at 2^53, where the float occupations stop being
# exact integers: past it, these once raised numpy's TypeError or OverflowError.
@pytest.mark.parametrize("call", [
    lambda: casimir_interior_residual(10**30),
    lambda: sector_operators(10**30, 0),
    lambda: l2_relation_check(10**30),
    lambda: sector_operators(2**53 + 1, 0),
], ids=["casimir", "sector", "l2", "sector-past-the-edge"])
def test_a_cutoff_above_its_ceiling_is_refused(call):
    with pytest.raises(ValueError, match=f"^n_max must be <= {2**53}$"):
        call()


# The builders' levels are floats too: past 2^53 states these once raised
# numpy's "Maximum allowed size exceeded", which names no argument.
@pytest.mark.parametrize("call, text", [
    (lambda: build_su2_rep(1e30), f"2l \\+ 1 must be <= {2**53}, got l = 1e\\+30"),
    (lambda: build_su2_rep(2**52), f"2l \\+ 1 must be <= {2**53}, got l = {2**52}"),
    (lambda: build_su11_rep(1.5, 10**30), f"dim must be <= {2**53}"),
    (lambda: build_h1_rep(10**30), f"dim must be <= {2**53}"),
    (lambda: build_h1_rep(2**53 + 1), f"dim must be <= {2**53}"),
], ids=["su2", "su2-past-the-edge", "su11", "h1", "h1-past-the-edge"])
def test_a_builder_size_above_its_ceiling_is_refused(call, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()


def test_the_cutoff_ceiling_itself_is_read():
    # the sector j = n_max/2 holds the one state |n_max, 0>
    assert sector_operators(2**53, 2**52).dim == 1


def test_a_whole_float_count_is_read_as_its_integer():
    assert build_h1_rep(3.0).dim == 3
    assert EvolutionParams(8.0, 1.0).n_states == 8
    assert touch_points(thooft_system(7.0), 7.0).count == 7


# Found by the property test over the public surface (`test_surface.py`): an
# int past the float range once raised OverflowError ("int too large to convert
# to float") wherever a real parameter is read.  Each is now not finite, as
# `checked_count` reads it, and refused with its site's own text.
HUGE = 10**400


@pytest.mark.parametrize("call, text", [
    (lambda: EvolutionParams(4, HUGE), "tau must be positive and finite"),
    (lambda: DissipativeParams(HUGE, 1.0), "Omega and Gamma must be finite"),
    (lambda: simulate_torus(HUGE, 2.0, 3), "alpha1, alpha2 and phi0 must be finite"),
    (lambda: simulate_torus(1.0, 2.0, 3, phi0=(HUGE, 0.0)),
     "alpha1, alpha2 and phi0 must be finite"),
    (lambda: build_su2_rep(HUGE), f"l must be a half-integer >= 1/2 with 2l finite, got {HUGE}"),
    (lambda: build_su11_rep(HUGE, 4),
     f"k must be a half-integer >= 1/2 with 2k finite, got {HUGE}"),
    (lambda: run_contraction_study("su11", [0.5, HUGE], 3), "params must be finite"),
    (lambda: sector_operators(4, HUGE), f"no sector with j = {HUGE} at n_max 4"),
    (lambda: deformed_identity_residuals(build_su2_rep(1.5), HUGE),
     "tau must be positive and finite"),
    (lambda: relations_in_float_range(Su11(3.0), HUGE), "dim must be a finite integer"),
    (lambda: dissipative_in_float_range(HUGE, DissipativeParams(1.0, 1.0)),
     "n_max must be a finite integer"),
], ids=["evolution-tau", "dissipative-omega", "torus-rate", "torus-phi0", "su2-l", "su11-k",
        "contraction-params", "sector-j", "identities-tau", "relations-dim", "dissipative-n-max"])
def test_an_int_past_the_float_range_is_not_finite(call, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        call()


# density_metrics once raised numpy's AxisError on a vector, a RuntimeWarning
# on infinite angles, and returned (nan, nan) on nan ones
@pytest.mark.parametrize("angles", [
    np.full((3, 2), np.inf), np.full((3, 2), np.nan), np.zeros(3), np.zeros((0, 2)),
    np.zeros((2, 3)), np.array([[1e308, -1e308], [0.0, 1.0]]),
], ids=["inf", "nan", "vector", "no-steps", "three-columns", "off-the-circle"])
def test_density_metrics_refuses_what_are_not_torus_angles(angles):
    with pytest.raises(ValueError, match=r"^angles must be a \(steps, 2\) array"):
        density_metrics(angles)


# Each of these once raised TypeError or a numpy error, warned, returned a
# non-finite float, or refused in words that named none of its arguments.
@pytest.mark.parametrize("call, text", [
    (lambda: CircleDynamics.rational(1.0, 0.5, 7), "num and den must be integers, got 0.5 and 7"),
    (lambda: CircleDynamics.rational(1.0, 3, 7.0), "num and den must be integers, got 3 and 7.0"),
    (lambda: simulate_torus(1.0, 2.0, 1e308), "steps must be <= 10000000"),
    (lambda: simulate_torus(1.0, 2.0, 2**53 + 1), "steps must be <= 10000000"),
    (lambda: simulate_torus(math.nan, 2.0, 3), "alpha1, alpha2 and phi0 must be finite"),
    (lambda: touch_points(CircleDynamics(1.0, 0.3, None), 1e30), "count must be <= 10000000"),
    (lambda: touch_points(CircleDynamics.rational(5e-324, 5, 7), 2),
     "the touch times j pi/alpha are beyond the float range"),
    (lambda: continuous_position(CircleDynamics.rational(1.0, 1, 1, 1e307),
                                 np.linspace(0, 10 * np.pi, 3)),
     "the curve phase beta t is beyond the float range"),
    (lambda: continuous_position(CircleDynamics(1e308, 0.5, None), 10.0),
     "the curve phase alpha t is beyond the float range"),
    (lambda: continuous_position(CircleDynamics(1.0, 0.5, None), [0.0, np.nan]),
     "the curve phase alpha t is beyond the float range"),
    (lambda: OperatorMatrix("M", Bands.diag(np.array([1.7e308 + 1.7e308j]))),
     "'M': entries must be finite"),
    (lambda: deformed_identity_residuals(build_su2_rep(3), 1e-300),
     "l = 3.0 at tau 1e-300 puts the identity checks beyond the float range"),
    (lambda: relations_in_float_range(Su11(1.0), 0.5), "dim must be a finite integer, got 0.5"),
    (lambda: run_contraction_study("su11", [1000.0], 1e30), f"interior must be <= {2**53 - 1}"),
    (lambda: run_contraction_study("su2", [], 3), "params must not be empty"),
    (lambda: holstein_primakoff(build_h1_rep(3)), "rep must be the k = 1/2 discrete series"),
    (lambda: scaled_ladders(build_h1_rep(3)), "rep is an oscillator ladder"),
], ids=["ratio-num", "ratio-den", "torus-steps-huge", "torus-steps-past-the-edge",
        "torus-rate-named", "touch-count", "touch-times", "curve-phase-beta",
        "curve-phase-alpha", "curve-time-nan", "complex-modulus", "identities-tiny-tau",
        "relations-dim-sqrt",
        "contraction-interior-huge", "contraction-empty", "hp-kind", "scale-oscillator"])
def test_a_refusal_names_its_argument(call, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        call()


def test_a_rational_count_past_the_rotation_ceiling_is_read():
    # a closed orbit holds one period, so its count has no rotation ceiling
    assert touch_points(thooft_system(7), 10**8).count == 10**8
