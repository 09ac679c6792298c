"""The byte-identity corpus: literal CLI argvs whose output bytes are exact.

Every cell these argvs write comes from +, -, *, / and sqrt, which IEEE 754
rounds exactly, so the bytes do not depend on the numpy build: the su(2),
su(1,1) and h(1) relation checks on both sides of the sizes where the fixed
1e-12 gate first trips, every two-mode check at nmax 1 to 40, a dump of
every sector at nmax 1 to 12 and of the edge and middle sectors at nmax 40
and 1000, the Holstein-Primakoff map, the deformed identities on both sides
of their first false breach, and the exact ops of the benchmark's `dense`
workload at its sizes, with the values seeds 1 to 3 draw.  The `orbit --torus` traces are here too: their angles come only
from `math.fmod`, *, +, / and `np.floor` (`orbits._rotations`), and their
gaps only from a sort and subtractions.  `evolve`, the other `orbit` modes
and `contract --family` go through exp, sin, cos, log and LAPACK, whose
last bit may differ between builds, so none of their output files is
here.  Every argv `tests/test_cli.py` expects to exit 2 is here as well,
whatever its subcommand (its `run_refused` fails on one that is not): it
writes no file, and its refusal text is what is compared.  So are both
sides of the float-range edge of each parameter-scaled identity table.

`manifest.json` holds, for each argv, the exit code, the stderr and the
sha256 of the one file the run writes (null when it writes none).  The
stderr is kept without the usage text argparse prints before its error
line, since argparse wraps that text to the terminal width.
`tests/test_corpus.py` runs every argv and compares.  A change that alters
output on purpose rewrites the manifest by running, from the repository root,

    PYTHONPATH=src python tests/golden/regen.py

and lists each changed argv with its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from ladderlab.cli import TOOL, main

MANIFEST = Path(__file__).with_name("manifest.json")
# argparse's usage text, up to the error line it precedes
USAGE = re.compile(rf"^usage: .*?\n(?={TOOL}[^\n]*: error: )", re.MULTILINE | re.DOTALL)


def argvs() -> list[list[str]]:
    """The corpus argvs, in manifest order."""
    exact = [
        ["rep", "--algebra", "su2", "--l", "63.5"],
        ["rep", "--algebra", "su2", "--l", "64"],
        ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "65"],
        ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "66"],
        ["rep", "--algebra", "h1", "--dim", "411"],
        ["rep", "--algebra", "h1", "--dim", "412"],
        *(["contract", "--hp", "--dim", str(dim)] for dim in (2, 3, 8, 64, 257)),
        ["contract", "--identities", "--l", "4050", "--tau", "1"],
        ["contract", "--identities", "--l", "4100", "--tau", "1"],
    ]
    runs = [*exact, *(argv + ["--format", "json"] for argv in exact)]
    for check in ("all", "casimir", "sectors", "hamiltonian", "l2"):
        runs += [["schwinger", "--nmax", str(nmax), "--check", check] for nmax in range(1, 41)]
    runs += [["schwinger", "--nmax", str(nmax), "--check", "all", "--format", "json"]
             for nmax in (2, 18, 19)]
    for nmax in range(1, 13):
        runs += [["schwinger", "--nmax", str(nmax), "--dump", "--sector", str(shift / 2)]
                 for shift in range(-nmax, nmax + 1)]
    runs += [["schwinger", "--nmax", nmax, "--dump", "--sector", j] for nmax, sectors in [
        ("40", ("-20", "-19.5", "-0.5", "0", "0.5", "19.5", "20")),
        ("1000", ("-499.5", "0", "0.5"))] for j in sectors]
    runs += [*BENCHMARK, *(argv + ["--format", "json"] for argv in BENCHMARK)]
    runs += [*TORUS, *(argv + ["--format", "json"] for argv in TORUS)]
    return runs + REFUSALS + EDGES


# the exact-arithmetic ops of the benchmark's `dense` workload at seeds 1 to 3,
# with the `--Omega`, `--Gamma` and `--tau` that `perfbench/workloads.py` draws
BENCHMARK = [
    *(["schwinger", "--nmax", nmax, "--check", "all", "--Omega", omega, "--Gamma", gamma]
      for nmax, omega, gamma in [
          ("16", "0.9984455736659898", "0.7487834404684702"),
          ("24", "0.8333093898455757", "0.5497955575341009"),
          ("30", "0.5316269146975962", "0.3698162183708719"),
          ("16", "1.931532815851352", "0.6552626061920007"),
          ("24", "1.2792444672022618", "0.8830656627262536"),
          ("30", "0.924254482871783", "0.5531691151693401"),
          ("16", "1.758151363680911", "0.37189099382995633"),
          ("24", "0.8395779714693565", "0.6451419238868297"),
          ("30", "1.8810487163304614", "0.32692050108025905"),
      ]),
    ["schwinger", "--nmax", "30", "--sector", "0", "--dump"],
    ["rep", "--algebra", "su2", "--l", "300.0"],
    ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "600"],
    ["rep", "--algebra", "h1", "--dim", "600"],
    *(["contract", "--identities", "--l", "300.0", "--tau", tau]
      for tau in ("0.75282900598463", "1.7081808336360904", "1.4147116734201082")),
    ["contract", "--hp", "--dim", "800"],
]

# the benchmark's two `orbits` torus ops at seeds 1 to 3, with the `--phi0`,
# `--rot1` and `--rot2` that `perfbench/workloads.py` draws, and golden runs
# whose rows end just before, on and just after the writer's block edges
TORUS = [
    *(["orbit", "--torus", "--ratio", "golden", "--steps", "60000", "--phi0", phi0]
      for phi0 in ("0.015791856339292143,0.17255656276826628",
                   "3.5880443729002756,5.340469739947538",
                   "4.9702009966793925,3.1651416186098484")),
    *(["orbit", "--torus", "--rot1", rot1, "--rot2", rot2, "--steps", "60000", "--phi0", phi0]
      for rot1, rot2, phi0 in [
          ("5.398130543606582", "4.169915118617388", "5.861320642170976,2.9783214148916985"),
          ("2.974007134979136", "2.030215240600638", "1.4624640944718545,4.122267106628224"),
          ("5.7038264091681405", "1.4047506335301303",
           "0.6408323800737769,0.44554071720390703"),
      ]),
    *(["orbit", "--torus", "--ratio", "golden", "--steps", str(steps)]
      for steps in (1, 255, 256, 257, 513)),
]

# every argv `tests/test_cli.py` expects to exit 2 that `argvs` does not already hold
REFUSALS = [
    ["rep", "--algebra", "su11", "--k", "0.2", "--dim", "10"],
    ["rep", "--algebra", "su2"],
    ["rep", "--algebra", "su11", "--k", "1e308", "--dim", "4"],
    ["contract", "--hp", "--identities", "--l", "3"],
    ["contract", "--family", "su2", "--params", "5,1e308"],
    ["contract", "--family", "su11", "--params", "5,1e308"],
    ["evolve", "--N", "1"],
    ["orbit", "--two-circle", "--q-num", "5", "--q-den", "3"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "4611686018427387904", "--steps",
     "3"],
    ["orbit", "--torus"],
    ["orbit", "--thooft-N", "7", "--torus"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--steps",
     "4611686018427387904"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "4611686018427387904"],
    ["orbit", "--thooft-N", "4611686018427387904"],
    ["orbit", "--thooft-N", "7", "--curve-samples", "4611686018427387904"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "10000001"],
    ["evolve", "--N", "4611686018427387904"],
    ["evolve", "--N", "10000001"],
    ["rep", "--algebra", "su2", "--l", "5000000.5"],
    ["rep", "--algebra", "su2", "--l", "1000000000000000000"],
    ["contract", "--identities", "--l", "5000000.5"],
    ["contract", "--identities", "--l", "1000000000000000000"],
    ["rep", "--algebra", "h1", "--dim", "10000001"],
    ["rep", "--algebra", "h1", "--dim", "1000000000000000000"],
    ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "10000001"],
    ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "1000000000000000000"],
    ["contract", "--hp", "--dim", "10000001"],
    ["contract", "--hp", "--dim", "1000000000000000000"],
    ["schwinger", "--nmax", "3162"],
    ["schwinger", "--nmax", "1000000000000000000"],
    ["schwinger", "--nmax", "0"],
    ["schwinger", "--nmax", "4", "--dump"],
    ["schwinger", "--nmax", "4", "--sector", "7.5", "--dump"],
    ["schwinger", "--nmax", "4", "--sector", "0.25", "--dump"],
    ["evolve", "--N", "7", "--frobnicate"],
    ["evolve", "--N", "4", "--out", "missing/x.csv"],
    ["evolve", "--N", "4", "--out", "."],
    ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", "nan"],
    ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", "inf"],
    ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", "-inf"],
    ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", "-1"],
    ["rep", "--algebra", "h1", "--dim", "8", "--tolerance", "0"],
    ["evolve", "--N", "8", "--tau", "nan"],
    ["contract", "--identities", "--l", "3", "--tau", "nan"],
    ["evolve", "--N", "8", "--tau", "inf"],
    ["contract", "--identities", "--l", "3", "--tau", "inf"],
    ["schwinger", "--nmax", "4", "--Omega", "nan"],
    ["schwinger", "--nmax", "4", "--Omega", "-inf"],
    ["schwinger", "--nmax", "4", "--Gamma", "nan"],
    ["schwinger", "--nmax", "4", "--Gamma", "inf"],
    ["schwinger", "--nmax", "300", "--Gamma", "0"],
    ["schwinger", "--nmax", "300", "--Gamma", "-0.0"],
    ["schwinger", "--nmax", "300", "--Gamma", "-1"],
    ["schwinger", "--nmax", "4", "--dump", "--sector", "0.3"],
    ["schwinger", "--nmax", "4", "--dump", "--sector", "5"],
    ["schwinger", "--nmax", "4", "--dump", "--sector", "-5"],
    ["schwinger", "--nmax", "4", "--dump", "--sector", "1e9"],
    ["schwinger", "--nmax", "4", "--check", "casimir", "--Gamma", "0"],
    ["contract", "--family", "su2", "--params", "5,10", "--tau", "0"],
    ["orbit", "--torus", "--rot1", "nan", "--rot2", "1"],
    ["orbit", "--torus", "--rot1", "inf", "--rot2", "1"],
    ["orbit", "--torus", "--rot1", "1", "--rot2", "nan"],
    ["orbit", "--torus", "--rot1", "1", "--rot2", "-inf"],
    ["orbit", "--thooft-N", "7", "--alpha", "nan"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--curve-samples", "4",
     "--alpha", "nan"],
    ["orbit", "--thooft-N", "7", "--alpha", "inf"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--curve-samples", "4",
     "--alpha", "inf"],
    ["orbit", "--thooft-N", "7", "--alpha", "0"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--curve-samples", "4",
     "--alpha", "0"],
    ["orbit", "--thooft-N", "7", "--alpha", "-1"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--curve-samples", "4",
     "--alpha", "-1"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "nan,0"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "0,inf"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "1,-inf"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "0"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "0", "--q-irr-add", "pi/40"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/0"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/-0.0"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/nan"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "inf"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "xyz"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "pi*-inf"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "pi/1e-320"],
    ["orbit", "--two-circle", "--q-num", "9" * 400, "--q-den", "1", "--q-irr-add", "pi/40",
     "--steps", "10"],
    ["orbit", "--two-circle", "--q-num", "9" * 400, "--q-den", "1", "--steps", "10"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "9" * 400, "--steps", "10"],
    ["orbit", "--two-circle", "--q-num", str(10**308), "--q-den", "1", "--q-irr-add",
     "1.7e308", "--steps", "10"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--q-irr-add", "1e300",
     "--alpha", "1e10", "--steps", "10"],
    ["rep", "--algebra", "su2", "--l=nan"],
    ["rep", "--algebra", "su11", "--k=nan", "--dim", "8"],
    ["contract", "--identities", "--l=nan"],
    ["contract", "--family", "su2", "--params=50,nan"],
    ["contract", "--family", "su11", "--params=nan,5"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=nan,0"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=0,nan"],
    ["rep", "--algebra", "su2", "--l=inf"],
    ["rep", "--algebra", "su11", "--k=inf", "--dim", "8"],
    ["contract", "--identities", "--l=inf"],
    ["contract", "--family", "su2", "--params=50,inf"],
    ["contract", "--family", "su11", "--params=inf,5"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=inf,0"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=0,inf"],
    ["rep", "--algebra", "su2", "--l=-inf"],
    ["rep", "--algebra", "su11", "--k=-inf", "--dim", "8"],
    ["contract", "--identities", "--l=-inf"],
    ["contract", "--family", "su2", "--params=50,-inf"],
    ["contract", "--family", "su11", "--params=-inf,5"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=-inf,0"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0=0,-inf"],
    ["contract", "--family", "su2", "--params", "5,ten"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "0,"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "a,b"],
    ["orbit", "--two-circle", "--q-num", "-3", "--q-den", "7"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "-7"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--q-irr-add", "-0.5"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--steps", "0"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--steps", "-2"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "0"],
    ["orbit", "--thooft-N", "2"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--alpha", "0"],
    ["orbit", "--two-circle", "--q-num", "9", "--q-den", "7"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "4611686018427387904", "--steps",
     "1"],
    ["contract", "--family", "su2", "--params", "0"],
    ["contract", "--family", "su2", "--params", "10,5"],
    ["contract", "--family", "su2", "--params", "5,5,5"],
    ["contract", "--family", "su2", "--params", "5,5,10"],
    ["contract", "--family", "su2", "--params", "5,10", "--n", "-1"],
    ["evolve", "--N", "0"],
    ["rep", "--algebra", "su2", "--l", "0"],
    ["rep", "--algebra", "su11", "--k", "1.5", "--dim", "0"],
    ["rep", "--algebra", "h1", "--dim", "1"],
    ["contract", "--hp", "--dim", "0"],
    ["rep", "--algebra", "su2", "--l", "2", "--interior", "0"],
    ["contract", "--identities", "--l", "1.3"],
    ["orbit", "--torus", "--ratio", "golden", "--phi0", "1,2,3"],
    ["schwinger", "--nmax", "3", "--dump", "--sector", "0.3"],
    ["schwinger", "--nmax", "3", "--dump", "--sector", "5"],
    ["schwinger", "--nmax", "3", "--dump", "--sector", "1e9"],
    ["orbit", "--thooft-N", "7", "--steps", "5"],
    ["orbit", "--torus", "--ratio", "golden", "--steps", "5", "--alpha", "2"],
    ["orbit", "--thooft-N", "7", "--q-num", "9", "--q-den", "7"],
    # two unread flags: the one named is the first in MODE_FLAGS order, not on the line
    ["orbit", "--thooft-N", "7", "--steps", "5", "--q-num", "9"],
    ["orbit", "--thooft-N", "7", "--q-irr-add", "pi/40"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--phi0", "1,2"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "3", "--ratio", "golden"],
    ["orbit", "--torus", "--rot1", "1", "--rot2", "2", "--curve-samples", "5"],
    ["orbit", "--torus", "--ratio", "golden", "--rot1", "1", "--rot2", "2"],
    ["orbit", "--torus", "--ratio", "golden", "--rot2", "2"],
    ["orbit", "--torus", "--ratio", "golden", "--rot1", "1"],
    ["rep", "--algebra", "su2", "--l", "3", "--k", "2"],
    ["rep", "--algebra", "h1", "--dim", "5", "--l", "2"],
    ["contract", "--hp", "--l", "3"],
    ["contract", "--family", "su2", "--params", "5,10", "--dim", "7"],
    ["contract", "--identities", "--l", "3", "--n", "5"],
    ["schwinger", "--nmax", "3", "--sector", "0"],
    ["schwinger", "--nmax", "3", "--check", "casimir", "--Omega", "5"],
    ["schwinger", "--nmax", "3", "--dump", "--sector", "0", "--check", "l2"],
    ["orbit", "--two-circle", "--q-num", "3", "--q-den", "7", "--curve-samples", "-1"],
    ["orbit", "--thooft-N", "7", "--curve-samples", "-1"],
    ["orbit", "--torus", "--ratio", "golden", "--curve-samples", "-1"],
    ["orbit", "--two-circle", "--alpha", "1e-300", "--q-num", "1", "--q-den", "2",
     "--q-irr-add", "1e308", "--steps", "3"],
    ["schwinger", "--nmax", "3", "--check", "hamiltonian", "--Omega", "1e308", "--Gamma",
     "1e308"],
    ["evolve", "--N", "2", "--tau", "1e-320"],
    ["evolve", "--N", "2", "--tau", "1e308", "--units", "omega"],
    ["orbit", "--thooft-N", "7", "--alpha", "1e-308"],
    ["orbit", "--two-circle", "--alpha", "1e-308", "--q-num", "1", "--q-den", "2", "--steps",
     "2", "--curve-samples", "3"],
    ["orbit", "--two-circle", "--q-num", "1", "--q-den", "1", "--q-irr-add", "1e307",
     "--steps", "10", "--curve-samples", "3"],
    ["contract", "--identities", "--l", "3", "--tau", "1e308"],
    ["contract", "--identities", "--l", "3", "--tau", "9e307"],
    ["contract", "--identities", "--l", "3", "--tau", "1e-160"],
    ["contract", "--identities", "--l", "3", "--tau", "1e-300"],
    ["contract", "--identities", "--l", "3", "--tau", "5e-324"],
    ["contract", "--identities", "--l", "100000", "--tau", "1e300"],
    ["contract", "--identities", "--l", "0.5", "--tau", "1e308"],
    ["contract", "--identities", "--l", "3", "--tau", "0"],
    ["contract", "--identities", "--l", "3", "--tau", "-0.0"],
    ["contract", "--identities", "--l", "3", "--tau", "-1"],
    ["schwinger", "--nmax", "4", "--sector=nan", "--dump"],
    ["schwinger", "--nmax", "4", "--sector=inf", "--dump"],
    ["schwinger", "--nmax", "4", "--sector=-inf", "--dump"],
    ["schwinger", "--nmax", "800", "--dump"],
    ["evolve", "--N", "x"],
    ["rep", "--algebra", "h1", "--dim", "5", "--tolerance", "-1"],
    # a mode run without a flag it needs
    ["rep", "--algebra", "su11", "--k", "1.5"],
    ["rep", "--algebra", "su11", "--dim", "4"],
    ["rep", "--algebra", "h1"],
    ["contract", "--identities"],
    ["contract", "--family", "su2"],
    ["contract", "--family", "su2", "--params", ""],
    ["orbit", "--two-circle"],
    ["orbit", "--two-circle", "--q-num", "1"],
    ["orbit", "--torus", "--rot1", "1"],
    ["orbit", "--torus", "--rot2", "2"],
    ["orbit", "--two-circle", "--alpha", "1e-308", "--steps", "10000000"],
    # a sweep of len(params) * (n + 1) rows just past MAX_ROWS
    ["contract", "--family", "su2", "--params", "5,10", "--n", "5000000"],
    ["contract", "--family", "su11", "--params", "5", "--n", "10000000"],
]


# both sides of the float-range edge of each parameter-scaled identity table:
# the su(1,1) relations at dim 3, 10 and 10^7, the dissipative table with
# Omega = Gamma at nmax 2, 30 and 3161, and the deformed identities at l = 1/2,
# 3 and 10^5, where the low-tau edge sits
EDGES = [
    *(["rep", "--algebra", "su11", "--k", k, "--dim", dim]
      for k, dim in [("1e206", "3"), ("1e300", "3"), ("1e307", "3"), ("1e296", "10000000"),
                     ("1e205", "3"), ("1.264e205", "3"), ("1.265e205", "3"), ("7.655e204", "10"),
                     ("7.657e204", "10"), ("7.393e202", "10000000")]),
    *(["schwinger", "--nmax", nmax, "--check", "hamiltonian", "--Omega", g, "--Gamma", g]
      for nmax, g in [("2", "4.740e153"), ("2", "4.741e153"), ("30", "3.160e152"),
                      ("30", "3.161e152"), ("3161", "3e150")]),
    *(["contract", "--identities", "--l", l, "--tau", tau]
      for l, tau in [("3", "4e-154"), ("3", "4.3e-154"), ("3", "5e-154"), ("3", "6e-154"),
                     ("0.5", "3.7e-154"), ("100000", "4.68e-154")]),
]


def run(argv: list[str]) -> dict:
    """Exit code, stderr and output sha256 of `cli.main(argv)`, run in an empty directory."""
    stderr = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
        finally:
            os.chdir(home)
        written = sorted(Path(work).iterdir())
        if len(written) > 1:
            raise RuntimeError(f"{argv} wrote {len(written)} files")
        digest = hashlib.sha256(written[0].read_bytes()).hexdigest() if written else None
    return {"exit": code, "stderr": USAGE.sub("", stderr.getvalue()), "sha256": digest}


if __name__ == "__main__":
    cases = [{"argv": argv, **run(argv)} for argv in argvs()]
    MANIFEST.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(cases)} argvs")
