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
