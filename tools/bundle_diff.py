#!/usr/bin/env python3
"""Compare ``asnkit analyze`` bundles of a git revision with the working tree.

Usage::

    python3 tools/bundle_diff.py <git-rev>

Runs ``python -m asnkit.cli analyze`` from a temporary ``git worktree`` of
<git-rev> and from the working tree on these cases:

* ``demo``: the bundled demo corpus, ``--seed 0``;
* ``takeover``: ``asnkit.synth.takeover_corpus()``, ``--seed 7 --replicates 100``;
* ``takeover-track``: the same, plus ``--track "MV konnen" --track "N man"``
  (without ``--track``, ``trajectories.csv`` is only a header);
* ``zipf-300``: ``perfbench/gen.py`` ``zipf_corpus(300, (13, 14, 15, 16),
  sentences=40, vocab=150, planted_from=2, planted_sentences=15,
  adjacent=3, distant=3, exponent=0.6, tag=1)``,
  ``--seed 300 --replicates 100``;
* ``zipf-300-track``: the same, plus ``--track "MV planthead"``;
* ``zipf-300-unweighted``: the same, plus ``--unweighted``;
* ``ingest-large``: ``zipf_corpus(0, (14, 15, 16, 17), sentences=1000,
  vocab=2500, planted_from=2, planted_sentences=40, adjacent=10,
  distant=10, tag=5)`` (about 2,000 nodes per century),
  ``--seed 0 --replicates 100``;
* ``crosslink``: ``asnkit.synth.crosslink_corpus()``,
  ``--seed 0 --replicates 100``;
* ``crosslink-large``: ``crosslink_corpus(chains=400, depth=6)``, the same
  arguments (about 2,800 nodes per century, all acyclic, diameter 2,400
  from century 16), so exact level propagation runs at scale.

Both sides read the same corpus files, written from the working tree.  The
script prints ``diff -r`` of the two bundles per corpus and exits 0 when
every bundle is byte-identical, 1 when any differs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def corpora() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (treebank text, extra ``analyze`` arguments)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import gen
    from asnkit import demo_corpus_path
    from asnkit.synth import crosslink_corpus, takeover_corpus

    zipf, _ = gen.zipf_corpus(
        300, (13, 14, 15, 16), sentences=40, vocab=150, planted_from=2,
        planted_sentences=15, adjacent=3, distant=3, exponent=0.6, tag=1,
    )
    large, _ = gen.zipf_corpus(
        0, (14, 15, 16, 17), sentences=1000, vocab=2500, planted_from=2,
        planted_sentences=40, adjacent=10, distant=10, tag=5,
    )
    takeover = ["--seed", "7", "--replicates", "100"]
    zipf_args = ["--seed", "300", "--replicates", "100"]
    seed_0 = ["--seed", "0", "--replicates", "100"]
    return {
        "demo": (Path(demo_corpus_path()).read_text(encoding="utf-8"), ["--seed", "0"]),
        "takeover": (takeover_corpus(), takeover),
        "takeover-track": (
            takeover_corpus(),
            [*takeover, "--track", "MV konnen", "--track", "N man"],
        ),
        "zipf-300": (zipf, zipf_args),
        "zipf-300-track": (zipf, [*zipf_args, "--track", "MV planthead"]),
        "zipf-300-unweighted": (zipf, [*zipf_args, "--unweighted"]),
        "ingest-large": (large, seed_0),
        "crosslink": (crosslink_corpus(), seed_0),
        "crosslink-large": (crosslink_corpus(chains=400, depth=6), seed_0),
    }


def analyze(tree: Path, treebank: Path, out: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, "-m", "asnkit.cli", "analyze", str(treebank),
         "--out", str(out), *args],
        env=env, cwd=treebank.parent, check=True, stdout=subprocess.DEVNULL,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    rev = parser.parse_args(argv).rev

    scratch = Path(tempfile.mkdtemp(prefix="bundle-diff-"))
    base = scratch / "base"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                    str(base), rev], check=True)
    identical = True
    try:
        for name, (text, args) in corpora().items():
            treebank = scratch / f"{name}.tb"
            treebank.write_text(text, encoding="utf-8")
            bundles = {side: scratch / f"{name}-{side}" for side in ("base", "work")}
            analyze(base, treebank, bundles["base"], args)
            analyze(ROOT, treebank, bundles["work"], args)
            result = subprocess.run(
                ["diff", "-r", str(bundles["base"]), str(bundles["work"])],
                capture_output=True, text=True,
            )
            verdict = "identical" if result.returncode == 0 else "DIFFERENT"
            print(f"{name}: {verdict} ({rev} vs working tree)")
            if result.returncode:
                identical = False
                print(result.stdout, end="")
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(base)], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
