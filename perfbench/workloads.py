"""The benchmark's workloads: fixed-size op lists whose free inputs come from a seed.

Each op is one `ladderlab` CLI invocation plus the closed-form check that
judges the file it writes.  The seed sets only generated inputs (start
angles, irrational offsets, `--tau`, `--Omega`/`--Gamma`) and the order of
the ops within a pass; sizes are fixed per workload.  `tiny=True` shrinks
every size for the self-tests and is never used for measurement.

Why each workload exists is stated in README.md beside this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a stable key, its argv (without --out), its checker.

    `largest` marks the op with the largest tracemalloc peak of its op
    group; the workload's `peak_mem_mb` is the sum of those peaks.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[checks.Output], list[str]]
    fmt: str = "csv"
    largest: bool = False


def _twomode(rng: random.Random, tiny: bool) -> list[Op]:
    sizes, dump_nmax = ((4, 6, 8), 8) if tiny else ((16, 24, 30), 30)
    ops = []
    for nmax in sizes:
        omega, gamma = rng.uniform(0.5, 2.0), rng.uniform(0.25, 1.0)
        ops.append(Op(
            f"schwinger-all-{nmax}",
            ("schwinger", "--nmax", str(nmax), "--check", "all",
             # repr round-trips a float exactly, so the CLI parses the value
             # the checker uses.
             "--Omega", repr(omega), "--Gamma", repr(gamma)),
            partial(checks.schwinger_all, nmax=nmax, omega=omega, gamma=gamma),
            largest=nmax == sizes[-1],
        ))
    ops.append(Op(
        f"schwinger-dump-{dump_nmax}",
        ("schwinger", "--nmax", str(dump_nmax), "--sector", "0", "--dump"),
        partial(checks.schwinger_dump, nmax=dump_nmax, j=0.0),
    ))
    return ops


def _ladders(rng: random.Random, tiny: bool) -> list[Op]:
    l, dim, hp_dim = (6.0, 12, 16) if tiny else (300.0, 600, 800)
    params = (5.0, 10.0, 20.0, 40.0) if tiny else (50.0, 100.0, 200.0, 400.0)
    sweep = ",".join(str(int(p)) for p in params)
    tau = rng.uniform(0.5, 2.0)
    return [
        Op("rep-su2", ("rep", "--algebra", "su2", "--l", str(l)),
           partial(checks.rep, algebra="su2", label=l, dim=int(2 * l) + 1)),
        Op("rep-su11", ("rep", "--algebra", "su11", "--k", "1.5", "--dim", str(dim)),
           partial(checks.rep, algebra="su11", label=1.5, dim=dim)),
        Op("rep-h1", ("rep", "--algebra", "h1", "--dim", str(dim)),
           partial(checks.rep, algebra="h1", label=None, dim=dim)),
        Op("contract-su2", ("contract", "--family", "su2", "--params", sweep),
           partial(checks.contract_family, params=params, n=3), largest=True),
        Op("contract-su11", ("contract", "--family", "su11", "--params", sweep),
           partial(checks.contract_family, params=params, n=3)),
        Op("contract-identities",
           ("contract", "--identities", "--l", str(l), "--tau", repr(tau)),
           partial(checks.contract_identities, l=l, tau=tau)),
        Op("contract-hp", ("contract", "--hp", "--dim", str(hp_dim)),
           partial(checks.contract_hp, dim=hp_dim)),
    ]


def _cyclic(rng: random.Random, tiny: bool) -> list[Op]:
    sizes = (8, 16, 24, 32) if tiny else (256, 512, 768, 1024)
    ops = []
    for n, units in zip(sizes, ("energy", "omega") * 2):
        tau = rng.uniform(0.5, 2.0)
        ops.append(Op(
            f"evolve-{n}-{units}",
            ("evolve", "--N", str(n), "--tau", repr(tau), "--units", units),
            partial(checks.evolve, n=n, tau=tau, units=units),
            largest=n == sizes[-1],
        ))
    return ops


def orbits(rng: random.Random, tiny: bool) -> list[Op]:
    steps = 300 if tiny else 60_000
    curve = 100 if tiny else 20_000

    def angle() -> float:
        return rng.uniform(0.0, 2.0 * math.pi)

    golden_phi0 = (angle(), angle())
    rot1, rot2 = rng.uniform(0.1, 6.2), rng.uniform(0.1, 6.2)
    phi0 = (angle(), angle())
    offset = rng.uniform(0.001, 0.05)
    return [
        Op("torus-golden",
           ("orbit", "--torus", "--ratio", "golden", "--steps", str(steps),
            "--phi0", ",".join(map(repr, golden_phi0))),
           partial(checks.torus, rot=(checks.GOLDEN, checks.GOLDEN), phi0=golden_phi0,
                   steps=steps)),
        Op("torus-seeded",
           ("orbit", "--torus", "--rot1", repr(rot1), "--rot2", repr(rot2),
            "--steps", str(steps), "--phi0", ",".join(map(repr, phi0))),
           partial(checks.torus, rot=(rot1, rot2), phi0=phi0, steps=steps)),
        Op("two-circle-irrational",
           ("orbit", "--two-circle", "--q-num", "3", "--q-den", "7",
            "--q-irr-add", repr(offset), "--steps", str(steps)),
           partial(checks.touch_irrational, ratio=3 / 7 + offset, steps=steps)),
        Op("two-circle-rational",
           ("orbit", "--two-circle", "--q-num", "5", "--q-den", "13",
            "--steps", str(steps), "--format", "json"),
           partial(checks.touch_rational, num=5, den=13, steps=steps, curve=0),
           fmt="json", largest=True),
        Op("thooft",
           ("orbit", "--thooft-N", str(steps), "--curve-samples", str(curve)),
           partial(checks.touch_rational, num=steps - 2, den=steps, steps=steps,
                   curve=curve)),
    ]


def dense(rng: random.Random, tiny: bool) -> list[Op]:
    """Two-mode checks, ladder studies and cyclic evolution: every dense-operator layer."""
    return _twomode(rng, tiny) + _ladders(rng, tiny) + _cyclic(rng, tiny)


WORKLOADS = {
    "dense": dense,
    "orbits": orbits,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of workload `name` for `seed`; the same seed gives the same ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)
