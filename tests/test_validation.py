"""Parameter dataclasses and orbit builders reject non-finite input."""

import math

import pytest

from ladderlab import (
    DissipativeParams,
    EvolutionParams,
    build_su2_rep,
    build_su11_rep,
    check_algebra_relations,
    dissipative_residuals,
    simulate_torus,
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
