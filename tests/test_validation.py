"""Parameter dataclasses and orbit builders reject non-finite input."""

import math

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
    l2_relation_check,
    run_contraction_study,
    sector_operators,
    simulate_torus,
    thooft_system,
    touch_points,
)
from ladderlab.algebra import Su11, relations_in_float_range
from ladderlab.contraction import deformed_identities_in_float_range, deformed_identity_residuals
from ladderlab.orbits import CircleDynamics
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
        CircleDynamics.irrational(value, 1.0)
    with pytest.raises(ValueError, match="finite"):
        CircleDynamics.irrational(1.0, value)


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
