"""Parameter dataclasses and orbit builders reject non-finite input."""

import math

import pytest

from ladderlab import DissipativeParams, EvolutionParams, build_su2_rep, simulate_torus
from ladderlab.contraction import deformed_identity_residuals
from ladderlab.orbits import CircleDynamics

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tau", NON_FINITE)
def test_evolution_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        EvolutionParams(8, tau)


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
    for args in ((value, 1.0, 1.0, 5), (1.0, value, 1.0, 5)):
        with pytest.raises(ValueError, match="finite"):
            simulate_torus(*args)
    with pytest.raises(ValueError, match="finite"):
        simulate_torus(1.0, 1.0, 1.0, 5, (value, 0.0))
    with pytest.raises(ValueError, match="finite"):
        simulate_torus(1.0, 1.0, value, 5)
