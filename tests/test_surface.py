"""Every public call returns finite values, or refuses with a ValueError naming an argument.

One property over the names of `ladderlab.__all__`, the three float-range
guards, the ratio builder and the continuous orbit curve: a call returns,
or raises `ValueError` whose text names one of its arguments (or a field
of one); it never raises anything else, such as `TypeError`,
`OverflowError` or a numpy error, and never warns; and every float it
returns is finite, except a nan its docstring states.

Numbers come from one pool: typical values, the boundaries, signed zeros,
subnormals, +-1e308, nan, +-inf, integers past the float range and
non-integer floats; an operator's entries are real, or complex with both
parts from the pool.  Reps, dynamics, parameters, operators and masks are
built by the library's own builders at small sizes.  A size is drawn from
the pool less its valid sizes above 4, so every size is small or one the
library must refuse before it allocates anything.
"""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ladderlab
from ladderlab.algebra import Su2, Su11, relations_in_float_range
from ladderlab.contraction import deformed_identities_in_float_range
from ladderlab.operators import Bands
from ladderlab.orbits import CircleDynamics, continuous_position
from ladderlab.twomode import dissipative_in_float_range

POOL = (0, 1, 2, 3, 7, -1, 0.5, 1.5, 2.5, 0.3, -2.5, math.pi, 1e3,
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
        1e300, 1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
        2**53, 2**53 + 1, 1e30, 10**30, 10**400, -10**400)


SIZES = tuple(value for value in POOL
              if not (ladderlab.finite(value) and value == int(value) and 4 < value <= 2**53))
# what a float array can hold
FLOATS = tuple(value for value in POOL if isinstance(value, float))
FINITE_FLOATS = tuple(value for value in FLOATS if math.isfinite(value))


def built(pick, build, *pools):
    """`build` of values picked from `pools`; an example whose builder refuses them is dropped."""
    try:
        return build(*map(pick, pools))
    except ValueError:
        reject()


def rep(pick):
    family = pick(("su2", "su11", "h1"))
    if family == "su2":
        return built(pick, ladderlab.build_su2_rep, (0.5, 1, 1.5, 3))
    if family == "su11":
        return built(pick, ladderlab.build_su11_rep, POOL, (2, 3, 4))
    return ladderlab.build_h1_rep(pick((2, 3, 4)))


def dynamics(pick):
    if pick((True, False)):
        return built(pick, ladderlab.thooft_system, (3, 4, 7), POOL)
    return built(pick, CircleDynamics.rational, POOL, (1, 3, 5), (4, 7, 13), POOL)


def evolution(pick):
    return built(pick, ladderlab.EvolutionParams, (2, 3, 4), POOL)


def dissipation(pick):
    return built(pick, ladderlab.DissipativeParams, POOL, POOL)


def diagonal(pick):
    """A diagonal of one to three entries, real or complex, each part from FLOATS."""
    count = pick((1, 2, 3))
    if pick((True, False)):
        return Bands.diag([pick(FLOATS) for _ in range(count)])
    return Bands.diag([complex(pick(FLOATS), pick(FLOATS)) for _ in range(count)])


def operator(pick):
    try:
        return ladderlab.OperatorMatrix("M", diagonal(pick))
    except ValueError:
        reject()


def mask(pick, dim: int):
    return pick((None, np.ones(dim, dtype=bool), np.arange(dim) < dim - 1))


def identity(pick):
    bands = operator(pick).bands
    return ladderlab.Identity("residual", lambda: bands, mask(pick, bands.dim))


def angles(pick):
    if pick((True, False)):
        return ladderlab.simulate_torus(pick(FINITE_FLOATS), pick(FINITE_FLOATS), pick((1, 2, 3)))
    shape = pick(((3, 2), (1, 2), (0, 2), (3,), (2, 3), (1, 2, 2)))
    return np.array([pick(FLOATS) for _ in range(math.prod(shape))]).reshape(shape)


def times(pick):
    """One time, or a list of zero to three."""
    if pick((True, False)):
        return pick(FLOATS)
    return [pick(FLOATS) for _ in range(pick((0, 1, 2, 3)))]


def bands_and_mask(pick):
    bands = operator(pick).bands
    return bands, mask(pick, bands.dim)


# Each callable and how its arguments are drawn, from a `pick` of one of a
# tuple of values.
CALLS = {
    ladderlab.build_h1_rep: lambda pick: (pick(SIZES),),
    ladderlab.build_su2_rep: lambda pick: (pick(SIZES),),
    ladderlab.build_su11_rep: lambda pick: (pick(POOL), pick(SIZES)),
    ladderlab.check_algebra_relations: lambda pick: (rep(pick), pick(SIZES)),
    ladderlab.holstein_primakoff: lambda pick: (rep(pick),),
    ladderlab.scaled_ladders: lambda pick: (rep(pick),),
    ladderlab.run_contraction_study: lambda pick: (
        pick(("su2", "su11", "h1")), [pick(POOL) for _ in range(pick((0, 1, 2, 3)))],
        pick(SIZES)),
    ladderlab.EvolutionParams: lambda pick: (pick(POOL), pick(POOL)),
    ladderlab.spectrum_via_dft: lambda pick: (evolution(pick),),
    ladderlab.geometric_phase_check: lambda pick: (evolution(pick),),
    ladderlab.OperatorMatrix: lambda pick: ("M", diagonal(pick)),
    ladderlab.Identity: lambda pick: ("residual", lambda: Bands.identity(2), mask(pick, 2)),
    ladderlab.evaluate: lambda pick: ([identity(pick) for _ in range(pick((0, 1, 2)))],),
    ladderlab.max_entry: bands_and_mask,
    ladderlab.density_metrics: lambda pick: (angles(pick),),
    ladderlab.simulate_torus: lambda pick: (
        pick(POOL), pick(POOL), pick(SIZES), tuple(pick(POOL) for _ in range(pick((0, 2, 3))))),
    ladderlab.thooft_system: lambda pick: (pick(POOL), pick(POOL)),
    ladderlab.touch_points: lambda pick: (dynamics(pick), pick(SIZES)),
    continuous_position: lambda pick: (dynamics(pick), times(pick)),
    ladderlab.DissipativeParams: lambda pick: (pick(POOL), pick(POOL)),
    ladderlab.casimir_interior_residual: lambda pick: (pick(SIZES),),
    ladderlab.sector_match_residual: lambda pick: (pick(SIZES),),
    ladderlab.l2_relation_check: lambda pick: (pick(SIZES),),
    ladderlab.dissipative_residuals: lambda pick: (pick(SIZES), dissipation(pick)),
    ladderlab.sector_operators: lambda pick: (pick(SIZES), pick(POOL)),
    relations_in_float_range: lambda pick: (
        built(pick, pick((Su2, Su11)), POOL), pick(POOL)),
    deformed_identities_in_float_range: lambda pick: (pick(POOL), pick(POOL)),
    dissipative_in_float_range: lambda pick: (pick(POOL), dissipation(pick)),
    CircleDynamics.rational: lambda pick: (pick(POOL), pick(POOL), pick(POOL), pick(POOL)),
}
# Refusals the CLI reports in the same words name what an argument is read
# as: each label of a contraction sweep is an l or a k, the ratio num/den is
# M/N, alpha times it is the rotation frequency beta, and the touch angle step
# (1 - beta/alpha) pi is the "rotation step".
ALSO_NAMED = {
    ladderlab.run_contraction_study: ("l", "k"),
    ladderlab.thooft_system: ("beta",),
    CircleDynamics.rational: ("M/N", "beta"),
    ladderlab.touch_points: ("rotation step",),
}
EXAMPLES_PER_ARGUMENT = 80
# fits of fewer than three points are reported as nan (`ContractionReport`)
STATED_NAN = {ladderlab.run_contraction_study: ("fitted_slope", "fit_residual")}


def test_every_public_name_is_drawn():
    drawn = {getattr(call, "__name__", None) for call in CALLS}
    assert set(ladderlab.__all__) <= drawn


def _names(call, args) -> set[str]:
    """The names a refusal of `call(*args)` may use: parameters, str arguments, dataclass fields."""
    names = set(inspect.signature(call).parameters)
    objects = list(args)
    for _ in range(2):
        nested = []
        for value in objects:
            if isinstance(value, str):
                names.add(value)
            elif dataclasses.is_dataclass(value):
                names.update(field.name for field in dataclasses.fields(value))
                nested.extend(getattr(value, field.name) for field in dataclasses.fields(value))
        objects = nested
    return names | set(ALSO_NAMED.get(call, ()))


def _floats(value, skip=()):
    """Every float and complex number in a returned value, through containers and dataclasses."""
    if isinstance(value, Bands):
        yield from _floats(value.diagonals)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name not in skip:
                yield from _floats(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            yield from value.ravel().tolist()
    elif isinstance(value, (float, complex, np.floating, np.complexfloating)):
        yield value


@pytest.mark.parametrize("call", CALLS, ids=lambda call: call.__qualname__)
def test_a_call_returns_finite_values_or_names_an_argument_it_refuses(call):
    # the more arguments a call takes, the more examples it is given
    examples = EXAMPLES_PER_ARGUMENT * len(inspect.signature(call).parameters)

    @settings(derandomize=True, max_examples=examples, deadline=None)
    @given(data=st.data())
    def returns_finite_values_or_names_an_argument(data):
        args = CALLS[call](lambda values: data.draw(st.sampled_from(values)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(*args)
            except ValueError as error:
                assert type(error) is ValueError, repr(error)
                names = "|".join(map(re.escape, sorted(_names(call, args), key=len, reverse=True)))
                assert re.search(rf"(?<!\w)({names})(?!\w)", str(error)), (str(error), args)
                return
        skip = STATED_NAN.get(call, ()) if len(getattr(result, "params", ())) < 3 else ()
        assert all(np.isfinite(value) for value in _floats(result, skip)), (result, args)

    returns_finite_values_or_names_an_argument()
