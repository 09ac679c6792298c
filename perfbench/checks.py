"""Closed-form checks of the files the `ladderlab` CLI writes.

Each checker parses one output file and compares it with values derived
independently of the package: spectra and ladder elements from their
closed forms, rational touch angles from `fractions.Fraction`, torus angles
from (phi0 + j d) mod 2 pi.  Identity residuals that are zero in exact
arithmetic are held to a rounding-error bound C * eps * scale, where scale
is the largest product of entries the identity sums (the componentwise
matrix-product bound, Higham, "Accuracy and Stability of Numerical
Algorithms", ch. 3; the ladders have at most two nonzeros per row, so the
inner-product length is a small constant absorbed in C).

A checker returns a list of problems; an empty list accepts the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
C = 16  # constant of the c * eps * scale rounding bounds
DEFAULT_TOLERANCE = 1e-12  # the CLI's default --tolerance; the benchmark never raises it
TWO_PI = 2.0 * math.pi
GOLDEN = TWO_PI * (math.sqrt(5.0) - 1.0) / 2.0
ALPHA = 1.0  # the CLI's default --alpha (envelope frequency); the workloads keep it


@dataclass(frozen=True)
class Output:
    """A parsed CLI output file: manifest command and tolerance, checks, rows."""

    command: str
    tolerance: float
    checks: dict
    rows: list[dict]


def _value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_output(path: Path, fmt: str) -> Output:
    """Parse a CSV (manifest comments, header, rows) or JSON output file."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        manifest = payload["manifest"]
        return Output(manifest["command"], manifest["tolerance"], payload["checks"],
                      payload["rows"])
    command, tolerance, found, rows, columns = "", math.nan, {}, [], None
    for line in text.splitlines():
        if line.startswith("# command="):
            command = line[len("# command="):]
        elif line.startswith("# tolerance="):
            tolerance = float(line[len("# tolerance="):])
        elif line.startswith("# check "):
            key, _, value = line[len("# check "):].partition("=")
            found[key] = _value(value)
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return Output(command, tolerance, found, rows)


def _floats(rows: list[dict], column: str) -> np.ndarray:
    return np.array([math.nan if r[column] in ("", None) else float(r[column]) for r in rows])


def _header(out: Output, command: str) -> list[str]:
    problems = []
    if out.command != command:
        problems.append(f"manifest command {out.command!r}, expected {command!r}")
    if out.tolerance != DEFAULT_TOLERANCE:
        problems.append(f"ran at tolerance {out.tolerance!r}, not the default")
    return problems


def _within(problems: list[str], label: str, got, want, bound) -> None:
    """Record the worst entry where |got - want| exceeds bound (arrays broadcast)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    excess = np.abs(got - want) - bound
    excess = np.where(np.isnan(excess), np.inf, excess)
    if excess.size and np.max(excess) > 0:
        i = int(np.argmax(excess))
        problems.append(f"{label}[{i}] = {got.flat[i]!r}, expected {want.flat[i]!r}")


def _circular(problems: list[str], label: str, got, want, bound) -> None:
    """As _within, comparing angles by their distance on the circle."""
    diff = np.abs(np.mod(np.asarray(got) - np.asarray(want) + math.pi, TWO_PI) - math.pi)
    _within(problems, label, diff, np.zeros_like(diff), bound)


def _residual(problems: list[str], out: Output, name: str, value, scale: float) -> None:
    bound = C * EPS * scale
    if value is None or not 0.0 <= float(value) <= bound:
        problems.append(f"{name} = {value!r} exceeds the rounding bound {bound:.3e}")
    if out.checks.get(name, value) != value:
        problems.append(f"{name}: row {value!r} and check line {out.checks[name]!r} differ")


def _entries(problems: list[str], out: Output, want: dict) -> None:
    """Rows (operator, row, col, re, im) must be exactly the nonzeros in `want`."""
    got = {(r["operator"], int(float(r["row"])), int(float(r["col"]))):
           (float(r["re"]), float(r["im"])) for r in out.rows}
    if got.keys() != want.keys():
        missing, extra = want.keys() - got.keys(), got.keys() - want.keys()
        problems.append(f"entry set differs: {len(missing)} missing, {len(extra)} extra")
        return
    keys = list(want)
    values = np.array([want[k] for k in keys])
    re = np.array([got[k][0] for k in keys])
    im = np.array([got[k][1] for k in keys])
    _within(problems, "entry.re", re, values, 4 * EPS * np.abs(values))
    _within(problems, "entry.im", im, 0.0, 4 * EPS * np.abs(values))


def _ladder(rows: int, l3, lplus) -> dict:
    """Nonzero entries of (L3, L+, L-) given the diagonal and subdiagonal closed forms."""
    want = {("L3", n, n): l3(n) for n in range(rows) if l3(n) != 0}
    for n in range(rows - 1):
        want[("L+", n + 1, n)] = want[("L-", n, n + 1)] = lplus(n)
    return want


def evolve(out: Output, *, n: int, tau: float, units: str) -> list[str]:
    """Energies (n + 1/2) omega (or n + 1/2 in units of omega) and U^N = -1."""
    problems = _header(out, "evolve")
    omega = TWO_PI / (n * tau)
    levels = _floats(out.rows, "n")
    if levels.tolist() != list(range(n)):
        return problems + ["levels are not 0 .. N-1 in order"]
    want = (np.arange(n) + 0.5) * (omega if units == "energy" else 1.0)
    _within(problems, "energy", _floats(out.rows, "energy"), want, 4 * EPS * want)
    _within(problems, "omega", out.checks["omega"], omega, 4 * EPS * omega)
    # U^N by repeated squaring of a unit phase: rounding grows at most like N eps
    _within(problems, "phase_re", out.checks["phase_re"], -1.0, C * n * EPS)
    _within(problems, "phase_im", out.checks["phase_im"], 0.0, C * n * EPS)
    return problems


def schwinger_all(out: Output, *, nmax: int, omega: float, gamma: float) -> list[str]:
    """Every two-mode identity residual within C eps times its largest term."""
    problems = _header(out, "schwinger")
    m = nmax + 1  # bounds L3, |L+-| and the single-mode ladders
    om, ga = abs(omega), abs(gamma)
    scales = {
        "casimir_interior": 2 * m**2,
        "sector_match": m,
        "h0_vs_casimir": om * m,
        "hi_vs_l2": ga * m,
        "h0_hermiticity": om * m,
        "hi_hermiticity": ga * m,
        "h0_hi_commutator": 2 * om * ga * m**2,
        "l2_commutator": 2 * m**2,
        "l2_double_commutator": 4 * m**3,
    }
    got = {r["check"]: _value(str(r["residual"])) for r in out.rows}
    if got.keys() != scales.keys():
        return problems + [f"checks {sorted(got)} differ from {sorted(scales)}"]
    for name, scale in scales.items():
        _residual(problems, out, name, got[name], scale)
    return problems


def schwinger_dump(out: Output, *, nmax: int, j: float) -> list[str]:
    """The j-sector ladders equal the discrete series of weight k = |j| + 1/2."""
    problems = _header(out, "schwinger")
    k, size = abs(j) + 0.5, nmax + 1 - int(round(2 * abs(j)))
    for name, want in (("sector_j", j), ("sector_size", size), ("induced_k", k)):
        if out.checks.get(name) != want:
            problems.append(f"{name} = {out.checks.get(name)!r}, expected {want!r}")
    _entries(problems, out, _ladder(size, lambda n: n + k,
                                    lambda n: math.sqrt((n + 2 * k) * (n + 1))))
    return problems


def rep(out: Output, *, algebra: str, label, dim: int) -> list[str]:
    """Ladder tables against their closed forms; relation residual within its bound."""
    problems = _header(out, "rep")
    if algebra == "su2":
        l3, lplus = (lambda n: n - label), (lambda n: math.sqrt((2 * label - n) * (n + 1)))
        interior = dim
    elif algebra == "su11":
        l3, lplus = (lambda n: n + label), (lambda n: math.sqrt((n + 2 * label) * (n + 1)))
        interior = dim - 1
    else:
        l3, lplus = (lambda n: n + 0.5), (lambda n: math.sqrt(n + 1))
        interior = dim - 1
    for name, want in (("dim", dim), ("interior", interior)):
        if out.checks.get(name) != want:
            problems.append(f"{name} = {out.checks.get(name)!r}, expected {want!r}")
    _entries(problems, out, _ladder(dim, l3, lplus))
    # [L+, L-] sums two products of ladder elements; [L3, L+-] products of L3 and L+-
    top = max(lplus(n) for n in range(dim - 1)) ** 2 + max(abs(l3(n)) for n in range(dim))
    _residual(problems, out, "relations_residual", out.checks.get("relations_residual"),
              2 * top)
    return problems


def contract_family(out: Output, *, params, n: int) -> list[str]:
    """Deviation ||([a, a+] - 1)|n>|| equals n/l (su2) or n/k (su11) for every sweep value."""
    problems = _header(out, "contract")
    want_p = [p for p in params for _ in range(n + 1)]
    want_n = [nn for _ in params for nn in range(n + 1)]
    got_p, got_n = _floats(out.rows, "param"), _floats(out.rows, "n")
    if got_p.tolist() != want_p or got_n.tolist() != want_n:
        return problems + ["sweep rows differ from params x 0..n"]
    want = np.array(want_n) / np.array(want_p)
    # the commutator entries are about n + 1 in size
    _within(problems, "deviation", _floats(out.rows, "deviation"), want,
            C * EPS * (np.array(want_n) + 2))
    if len(params) >= 3:
        # a log-log fit of exact n/p data has slope -1 up to rounding
        _within(problems, "fitted_slope", out.checks["fitted_slope"], -1.0, 1e-9)
    return problems


def contract_identities(out: Output, *, l: float, tau: float) -> list[str]:
    """[x, p] = i(1 - (tau/pi) H) and the Hamiltonian decomposition, within bound.

    [x, p] has entries about alpha |beta| (l + 1/2)^2 = l + 1/2 against a
    right side of at most 3; each of the Hamiltonian's terms is at most
    about 2 pi / tau.
    """
    problems = _header(out, "contract")
    scales = {"deformed_commutator": l + 4.0, "hamiltonian_decomposition": 8 * math.pi / tau}
    got = {r["identity"]: _value(str(r["residual"])) for r in out.rows}
    if got.keys() != scales.keys():
        return problems + [f"identities {sorted(got)} differ from {sorted(scales)}"]
    for r in out.rows:
        if float(r["l"]) != l or float(r["tau"]) != tau:
            problems.append(f"row l={r['l']} tau={r['tau']}, expected {l!r}, {tau!r}")
    for name, scale in scales.items():
        _residual(problems, out, name, got[name], scale)
    return problems


def contract_hp(out: Output, *, dim: int) -> list[str]:
    """The k = 1/2 boson mapping has the oscillator elements sqrt(n + 1) entrywise."""
    problems = _header(out, "contract")
    want = {}
    for n in range(dim - 1):
        want[("a", n, n + 1)] = want[("adag", n + 1, n)] = math.sqrt(n + 1)
    _entries(problems, out, want)
    _residual(problems, out, "hp_max_deviation", out.checks.get("hp_max_deviation"),
              math.sqrt(dim))
    return problems


def _max_gap(angles: np.ndarray) -> float:
    ordered = np.sort(angles)
    return float(max(np.max(np.diff(ordered), initial=0.0), ordered[0] + TWO_PI - ordered[-1]))


def torus(out: Output, *, rot, phi0, steps: int) -> list[str]:
    """phi_i after jump j equals (phi0_i + j d_i) mod 2 pi within a j eps bound.

    Each jump adds and reduces once, so rounding accumulates at most about
    one ulp of (2 pi + |d|) per step.
    """
    problems = _header(out, "orbit")
    j = _floats(out.rows, "step")
    if j.tolist() != list(range(1, steps + 1)):
        return problems + ["steps are not 1 .. steps in order"]
    for i, (d, start) in enumerate(zip(rot, phi0), start=1):
        got = _floats(out.rows, f"phi{i}")
        want = np.mod(start % TWO_PI + j * d, TWO_PI)
        _circular(problems, f"phi{i}", got, want,
                  4 * j * EPS * (TWO_PI + abs(d)) + C * EPS * TWO_PI)
        _within(problems, f"max_gap_{i}", out.checks[f"max_gap_{i}"], _max_gap(got),
                4 * EPS * TWO_PI)
    return problems


def _touch_rows(problems: list[str], out: Output, steps: int):
    touch = [r for r in out.rows if r["record"] == "touch"]
    j = _floats(touch, "index")
    if j.tolist() != list(range(1, steps + 1)):
        problems.append("touch rows are not 1 .. steps in order")
        return None
    theta = _floats(touch, "theta")
    t = j * math.pi / ALPHA
    _within(problems, "t", _floats(touch, "t"), t, 4 * EPS * t)
    _within(problems, "x", _floats(touch, "x"), np.cos(theta), 4 * EPS)
    _within(problems, "y", _floats(touch, "y"), np.sin(theta), 4 * EPS)
    _residual(problems, out, "radius_error", out.checks.get("radius_error"), 1.0)
    return j, theta


def touch_irrational(out: Output, *, ratio: float, steps: int) -> list[str]:
    """theta_j = j (1 - b/a) pi mod 2 pi within a j eps bound; no closure period."""
    problems = _header(out, "orbit")
    found = _touch_rows(problems, out, steps)
    if found is None:
        return problems
    j, theta = found
    delta = (1.0 - ratio) * math.pi
    _circular(problems, "theta", theta, np.mod(j * delta, TWO_PI),
              4 * j * EPS * (TWO_PI + abs(delta)) + C * EPS * TWO_PI)
    if out.checks.get("period_steps") is not None:
        problems.append(f"irrational orbit reports period {out.checks['period_steps']!r}")
    return problems


def touch_rational(out: Output, *, num: int, den: int, steps: int, curve: int) -> list[str]:
    """Touch angles from exact Fraction arithmetic; closure period; the underlying curve."""
    problems = _header(out, "orbit")
    found = _touch_rows(problems, out, steps)
    if found is None:
        return problems
    _, theta = found
    turn = 1 - Fraction(num, den)  # theta_j / pi = j (1 - q), reduced mod 2
    want = np.array([math.pi * float((j * turn) % 2) for j in range(1, steps + 1)])
    _circular(problems, "theta", theta, want, C * EPS * TWO_PI)
    period = (turn / 2).denominator
    if out.checks.get("period_steps") != period:
        problems.append(f"period_steps = {out.checks.get('period_steps')!r}, expected {period}")

    rows = [r for r in out.rows if r["record"] == "curve"]
    if _floats(rows, "index").tolist() != list(range(curve)):
        return problems + ["curve rows are not 0 .. samples-1 in order"]
    if curve:
        t = _floats(rows, "t")
        end = steps * math.pi / ALPHA
        _within(problems, "curve.t", t, np.arange(curve) * (end / (curve - 1)), 4 * EPS * end)
        beta = ALPHA * num / den
        envelope = np.cos(ALPHA * t)
        # cos/sin of arguments near (alpha + beta) t: one ulp of the argument
        bound = C * EPS * (1.0 + (ALPHA + beta) * np.abs(t))
        _within(problems, "curve.x", _floats(rows, "x"), envelope * np.cos(beta * t), bound)
        _within(problems, "curve.y", _floats(rows, "y"), -envelope * np.sin(beta * t), bound)
    return problems
