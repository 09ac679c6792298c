"""Byte identity of the exact-arithmetic CLI outputs, against `golden/manifest.json`.

`golden/regen.py` says which argvs the corpus holds, why their bytes are
portable, and how to rewrite the manifest when output changes on purpose.
"""

import json

import pytest

from golden.regen import MANIFEST, run

CASES = json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case["argv"]) for case in CASES])
def test_run_matches_manifest(case):
    assert {"argv": case["argv"], **run(case["argv"])} == case
