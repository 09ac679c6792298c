"""Numerical laboratory for ladder-operator algebras and the systems they model.

The package builds exact matrix representations of su(2), the positive
discrete series of su(1,1), and the truncated oscillator algebra; measures
their contraction onto canonical bosons; constructs the cyclic evolution
operator and extracts its (n + 1/2) spectrum; simulates the deterministic
circle and torus orbits underneath; and assembles the two-mode boson
realization with its Casimir sectors and dissipative Hamiltonian.
"""

from .algebra import build_h1_rep, build_su2_rep, build_su11_rep, check_algebra_relations
from .contraction import (
    contraction_deviation,
    holstein_primakoff,
    run_contraction_study,
    scaled_ladders,
)
from .evolution import EvolutionParams, geometric_phase_check, spectrum_via_dft
from .operators import Identity, OperatorMatrix, evaluate, max_entry
from .orbits import density_metrics, simulate_torus, thooft_system, touch_points
from .twomode import (
    DissipativeParams,
    build_two_mode,
    casimir_interior_residual,
    dissipative_residuals,
    l2_finite_residual,
    l2_relation_check,
    sector_match_residual,
    sector_operators,
)

__version__ = "0.1.0"

# The names the README documents; everything else lives in its module.
__all__ = [
    "DissipativeParams",
    "EvolutionParams",
    "Identity",
    "OperatorMatrix",
    "build_h1_rep",
    "build_su2_rep",
    "build_su11_rep",
    "build_two_mode",
    "casimir_interior_residual",
    "check_algebra_relations",
    "contraction_deviation",
    "density_metrics",
    "dissipative_residuals",
    "evaluate",
    "geometric_phase_check",
    "holstein_primakoff",
    "l2_finite_residual",
    "l2_relation_check",
    "max_entry",
    "run_contraction_study",
    "scaled_ladders",
    "sector_match_residual",
    "sector_operators",
    "simulate_torus",
    "spectrum_via_dft",
    "thooft_system",
    "touch_points",
]
