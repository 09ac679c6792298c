"""Numerical laboratory for ladder-operator algebras and the systems they model.

The package builds exact matrix representations of su(2), the positive
discrete series of su(1,1), and the truncated oscillator algebra; measures
their contraction onto canonical bosons; constructs the cyclic evolution
operator and extracts its (n + 1/2) spectrum; simulates the deterministic
circle and torus orbits underneath; and assembles the two-mode boson
realization with its Casimir sectors and dissipative Hamiltonian.
"""

import importlib
import math

# Each public name and the submodule that defines it.  A name is imported from
# its submodule on first use (PEP 562), so `import ladderlab` loads no numpy.
_SUBMODULES = {
    name: module
    for module, names in {
        "algebra": ("build_h1_rep", "build_su2_rep", "build_su11_rep", "check_algebra_relations"),
        "contraction": ("holstein_primakoff", "run_contraction_study", "scaled_ladders"),
        "evolution": ("EvolutionParams", "geometric_phase_check", "spectrum_via_dft"),
        "operators": ("Identity", "OperatorMatrix", "evaluate", "max_entry"),
        "orbits": ("density_metrics", "simulate_torus", "thooft_system", "touch_points"),
        "twomode": ("DissipativeParams", "casimir_interior_residual", "dissipative_residuals",
                    "l2_relation_check", "sector_match_residual", "sector_operators"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

# The names the README documents; everything else lives in its module.
__all__ = sorted(_SUBMODULES)


# The ceiling of a count the library holds as floats (levels, occupations):
# a float holds every integer up to 2^53 exactly, and not every one past it.
EXACT_INTEGER_CEILING = 2**53


def checked_count(value, name: str, floor: int, refusal: str | None = None,
                  ceiling: float = math.inf, above: str | None = None) -> int:
    """`value` as an int, if it is finite, integer-valued and in floor .. ceiling.

    The one rule for every count the library reads: states, levels, sites,
    touches, steps and the two-mode cutoff.  Finite is finite as a float,
    so an int past the float range is refused too.  Anything else raises
    ValueError naming `name`; `refusal` is the text for an integer below
    the floor, by default "<name> must be >= <floor>", and `above` the text
    for one above the ceiling, by default "<name> must be <= <ceiling>".
    """
    try:
        whole = math.isfinite(value) and value == int(value)
    except OverflowError:  # an int past the float range
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a finite integer, got {value!r}")
    if value < floor:
        raise ValueError(refusal or f"{name} must be >= {floor}")
    if value > ceiling:
        raise ValueError(above or f"{name} must be <= {ceiling}")
    return int(value)


def __getattr__(name: str):
    """A public name, read from its submodule each time, so it is always that module's object."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
