"""``analyze`` bundles match their committed SHA-256 digests.

The cases are three of ``tools/bundle_diff.py``'s, built by its own case
builders: ``demo``, ``takeover`` and ``zipf-904`` (the analyze-zipf benchmark
corpus of seed 904).  Each run of the suite, on every Python, numpy and scipy
version it is run with, checks that these bundles are byte for byte the ones
the digests were taken from.  A deliberate bundle change rewrites the digests
with::

    PYTHONPATH=src python3 tests/test_bundle_digests.py

and lists every changed file in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("bundle_digests.json")
CASES = ("demo", "takeover", "zipf-904")

_SPEC = importlib.util.spec_from_file_location(
    "bundle_diff", ROOT / "tools" / "bundle_diff.py")
bundle_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bundle_diff)


def bundle_digests(workdir: Path) -> dict[str, dict[str, str]]:
    """Case -> file name -> SHA-256 of each case's ``analyze`` bundle.

    The treebanks are written to ``workdir`` and named relative to it, as
    ``<case>.tb``, so ``manifest.json`` records the same input on any
    machine.
    """
    from asnkit.cli import main as cli_main

    cases = bundle_diff.corpora()
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case in CASES:
            text, args = cases[case]
            Path(f"{case}.tb").write_bytes(text.encode("utf-8"))
            assert cli_main(["analyze", f"{case}.tb", "--out", case, *args]) == 0
            digests[case] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(case).iterdir())
            }
    finally:
        os.chdir(cwd)
    return digests


def test_bundles_match_the_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = bundle_digests(tmp_path)
    assert sorted(got) == sorted(want)
    differ = [
        f"{case}/{name}"
        for case in CASES
        for name in sorted(got[case].keys() | want[case].keys())
        if got[case].get(name) != want[case].get(name)
    ]
    assert not differ, f"bundle files differ from {DIGESTS.name}: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = bundle_digests(Path(scratch))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
