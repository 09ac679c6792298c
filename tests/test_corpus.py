"""Byte identity of the exact-arithmetic CLI outputs, against `golden/manifest.json`.

`golden/regen.py` says which argvs the corpus holds, why their bytes are
portable, and how to rewrite the manifest when output changes on purpose.
"""

import json

import pytest

from golden.regen import MANIFEST, run
from ladderlab import twomode

CASES = json.loads(MANIFEST.read_text(encoding="utf-8"))
# every two-mode check argv; none of them holds more states than one run
CHECKS = [case for case in CASES if case["argv"][0] == "schwinger" and "--dump" not in case["argv"]]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_run_matches_manifest(case):
    assert {"argv": case["argv"], **run(case["argv"])} == case


@pytest.mark.parametrize("case", CHECKS, ids=[" ".join(case["argv"]) for case in CHECKS])
def test_one_sector_per_run_matches_manifest(case, monkeypatch):
    # each check sweeps its sectors one at a time and writes the same bytes
    monkeypatch.setattr(twomode, "RUN_STATES", 1)
    assert {"argv": case["argv"], **run(case["argv"])} == case
