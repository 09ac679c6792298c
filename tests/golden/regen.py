"""The byte-identity corpus: literal CLI argvs whose output bytes are exact.

Every cell these argvs write comes from +, -, *, / and sqrt, which IEEE 754
rounds exactly, so the bytes do not depend on the numpy build: the su(2),
su(1,1) and h(1) relation checks on both sides of the sizes where the fixed
1e-12 gate first trips, every two-mode check at nmax 1 to 40, a dump of
every sector at nmax 1 to 12, the Holstein-Primakoff map, and the deformed
identities on both sides of their first false breach.  `evolve`, `orbit` and
`contract --family` go through exp, sin, cos, log and LAPACK, whose last bit
may differ between builds, and are not here.

`manifest.json` holds, for each argv, the exit code, the stderr and the
sha256 of the one file the run writes (null when it writes none).
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
import tempfile
from pathlib import Path

from ladderlab.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")


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
    return runs


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
    return {"exit": code, "stderr": stderr.getvalue(), "sha256": digest}


if __name__ == "__main__":
    cases = [{"argv": argv, **run(argv)} for argv in argvs()]
    MANIFEST.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(cases)} argvs")
