#!/usr/bin/env python3
"""Compare ``asnkit analyze`` bundles of a git revision with the working tree.

Usage::

    python3 tools/bundle_diff.py <git-rev>

Runs ``python -m asnkit.cli analyze`` from a ``git archive`` copy of
<git-rev> and from the working tree on these cases:

* ``demo``: the bundled demo corpus, ``--seed 0``;
* ``takeover``: ``tests/corpora.py`` ``takeover_corpus()``,
  ``--seed 7 --replicates 100``;
* ``takeover-track``: the same, plus ``--track "MV konnen" --track "N man"``
  (without ``--track``, ``trajectories.csv`` is only a header);
* ``zipf-300``: ``perfbench/gen.py`` ``zipf_corpus(300, (13, 14, 15, 16),
  sentences=40, vocab=150, planted_from=2, planted_sentences=15,
  adjacent=3, distant=3, exponent=0.6, tag=1)``,
  ``--seed 300 --replicates 100``;
* ``zipf-300-track``: the same, plus ``--track "MV planthead"``;
* ``zipf-300-unweighted``: the same, plus ``--unweighted``;
* ``padded-integers``: the ``zipf-300`` text with every INDEX and HEAD
  zero-padded to three digits (``001``, ``000``), the same arguments, so
  the reader takes its per-field integer path, not its table of numerals;
* ``zipf-904``: the analyze-zipf benchmark corpus of seed 904, the same
  ``zipf_corpus`` arguments with seed 904 and centuries 14-17,
  ``--seed 904 --replicates 100``; in century 16 the lognormal LRT's
  supremum is the family's power-law limit;
* ``ingest-large``: ``zipf_corpus(0, (14, 15, 16, 17), sentences=1000,
  vocab=2500, planted_from=2, planted_sentences=40, adjacent=10,
  distant=10, tag=5)`` (about 2,000 nodes per century),
  ``--seed 0 --replicates 100``;
* ``crosslink``: ``tests/corpora.py`` ``crosslink_corpus()``,
  ``--seed 0 --replicates 100``;
* ``crosslink-large``: ``crosslink_corpus(chains=400, depth=6)``, the same
  arguments (about 2,800 nodes per century, all acyclic, diameter 2,400
  from century 16), so exact level propagation runs at scale;
* ``awkward``: :func:`awkward_corpus`, two centuries of small trees whose
  lemmas hold ``,``, ``"``, ``<&>``, ``\\``, U+2028 and a character
  outside the Basic Multilingual Plane, ``--seed 3 --replicates 100
  --track "N a,b" --track 'V sa"ge'``, so the quoting and escaping of the
  CSV, DOT and GraphML writers is compared too;
* ``two-files``: :func:`interleaved_corpus`, the sentences of
  ``zipf_corpus(21, (14, 15, 16), sentences=60, vocab=200, planted_from=1,
  planted_sentences=10, adjacent=3, distant=3, exponent=0.8, tag=3)`` dealt
  over two files in turn, with the centuries interleaved, ``## `` lines
  inside sentences and CRLF line ends in the second file, ``--seed 21
  --replicates 100``; the default policy drops 3 sentences per century;
* ``two-files-drop-any``: the same, plus ``--missing drop-any``, which drops
  every sentence holding a missing token, so the drop reasons listed in
  ``manifest.json`` are compared too.

Both sides read the same corpus files, written from the working tree.  The
script prints one verdict per case and exits 0 when every bundle is
byte-identical, 1 when any differs.  A differing bundle is sized file by
file: for CSV and JSON files, how many float fields changed and the
largest absolute difference among them, then every other change (an
integer or text field, a missing key, a row count).  A list of JSON
objects that differs only in float fields of objects at the same position,
such as the LRT entries of ``powerlaw_<c>.json`` after a float change, has
those floats counted and sized like any other.  Any other differing list of
JSON objects, such as the events of ``emergent_heads.json``, is shown as
the objects only the revision has (``-``) and only the working tree has
(``+``).  Other files are only named.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def awkward_corpus() -> str:
    """Two centuries of three-token trees over lemmas that need quoting.

    Each tree is a head with two dependents, taken from a ring of six nodes;
    the ring is walked with step 1 in century 14 and step 2 in century 15.
    """
    nodes = [("V", 'sa"ge'), ("N", "a,b"), ("AR", "<&>"), ("PP", "back\\slash"),
             ("N", "line\u2028sep"), ("AX", "\U0001F600")]
    blocks = []
    for step, century in enumerate((14, 15), start=1):
        blocks.append(f"# century = {century}\n# doc_id = awkward{century}")
        for i in range(len(nodes)):
            trio = [nodes[(i + k * step) % len(nodes)] for k in range(3)]
            blocks.append("\n".join(
                f"{index}\t{lemma}\t{lemma}\t{role}\t{head}\t_"
                for index, (role, lemma), head in zip((1, 2, 3), trio, (2, 0, 2))
            ))
    return "\n\n".join(blocks) + "\n"


def interleaved_corpus(text: str) -> list[str]:
    """The sentences of a ``gen.zipf_corpus`` text dealt over two files.

    Sentences are taken from each century in turn, each under its own
    ``century``, ``doc_id``, ``target`` and ``sent_id`` headers; every third
    sentence has a ``## `` line after its first token line, and the second
    file ends its lines with CRLF.
    """
    by_century: dict[str, list[str]] = {}
    for block in text.strip("\n").split("\n\n"):
        if block.startswith("#"):
            headers = block
            sentences = by_century.setdefault(headers, [])
        else:
            sentences.append(block)
    files: list[list[str]] = [[], []]
    dealt = 0
    for i in range(max(map(len, by_century.values()))):
        for headers, sentences in by_century.items():
            if i < len(sentences):
                lines = sentences[i].split("\n")
                if i % 3 == 0:
                    lines.insert(1, "## note inside a sentence")
                files[dealt % 2] += [*headers.split("\n"), f"# sent_id = {dealt}",
                                     *lines, ""]
                dealt += 1
    return ["\n".join(files[0]), "\r\n".join(files[1])]


def padded_corpus(text: str) -> str:
    """``text`` with every INDEX and HEAD field zero-padded to three digits."""
    lines = []
    for line in text.split("\n"):
        fields = line.split("\t")
        if len(fields) == 6:
            fields[0], fields[4] = fields[0].zfill(3), fields[4].zfill(3)
        lines.append("\t".join(fields))
    return "\n".join(lines)


def corpora() -> dict[str, tuple[str | list[str], list[str]]]:
    """Case name -> (treebank text or texts, extra ``analyze`` arguments).

    The texts come from ``perfbench/gen.py``, ``tests/corpora.py`` and the
    shipped demo corpus.
    """
    sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench", "tests")]
    import gen
    from asnkit import demo_corpus_path
    from corpora import crosslink_corpus, takeover_corpus

    zipf, _ = gen.zipf_corpus(
        300, (13, 14, 15, 16), sentences=40, vocab=150, planted_from=2,
        planted_sentences=15, adjacent=3, distant=3, exponent=0.6, tag=1,
    )
    zipf_904, _ = gen.zipf_corpus(
        904, (14, 15, 16, 17), sentences=40, vocab=150, planted_from=2,
        planted_sentences=15, adjacent=3, distant=3, exponent=0.6, tag=1,
    )
    large, _ = gen.zipf_corpus(
        0, (14, 15, 16, 17), sentences=1000, vocab=2500, planted_from=2,
        planted_sentences=40, adjacent=10, distant=10, tag=5,
    )
    interleaved, _ = gen.zipf_corpus(
        21, (14, 15, 16), sentences=60, vocab=200, planted_from=1,
        planted_sentences=10, adjacent=3, distant=3, exponent=0.8, tag=3,
    )
    takeover = ["--seed", "7", "--replicates", "100"]
    zipf_args = ["--seed", "300", "--replicates", "100"]
    seed_0 = ["--seed", "0", "--replicates", "100"]
    two_files = interleaved_corpus(interleaved)
    two_files_args = ["--seed", "21", "--replicates", "100"]
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
        "padded-integers": (padded_corpus(zipf), zipf_args),
        "zipf-904": (zipf_904, ["--seed", "904", "--replicates", "100"]),
        "ingest-large": (large, seed_0),
        "crosslink": (crosslink_corpus(), seed_0),
        "crosslink-large": (crosslink_corpus(chains=400, depth=6), seed_0),
        "awkward": (
            awkward_corpus(),
            ["--seed", "3", "--replicates", "100",
             "--track", "N a,b", "--track", 'V sa"ge'],
        ),
        "two-files": (two_files, two_files_args),
        "two-files-drop-any": (two_files, [*two_files_args, "--missing", "drop-any"]),
    }


def analyze(tree: Path, treebanks: list[Path], out: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, "-m", "asnkit.cli", "analyze", *map(str, treebanks),
         "--out", str(out), *args],
        env=env, cwd=treebanks[0].parent, check=True, stdout=subprocess.DEVNULL,
    )


def _float(value) -> float:
    """A float field's value (a JSON float, or CSV text that reads as a float
    and is not an integer); NaN for any other field."""
    if isinstance(value, str) and not value.lstrip("-").isdigit():
        try:
            return float(value)
        except ValueError:
            pass
    return value if isinstance(value, float) else math.nan


class FileDiff:
    """What differs between two versions of one bundle file."""

    def __init__(self) -> None:
        self.floats = 0
        self.largest = 0.0
        self.other: list[str] = []

    def value(self, where: str, old, new) -> None:
        delta = abs(_float(new) - _float(old))
        if math.isnan(delta):
            self.other.append(f"{where}: {old!r} -> {new!r}")
        else:
            self.floats += 1
            self.largest = max(self.largest, delta)

    def csv(self, old: str, new: str) -> None:
        old_rows = list(csv.reader(io.StringIO(old)))
        new_rows = list(csv.reader(io.StringIO(new)))
        if len(old_rows) != len(new_rows):
            self.other.append(f"{len(old_rows)} -> {len(new_rows)} rows")
        for line, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
            if len(a) != len(b):
                self.other.append(f"line {line}: {len(a)} -> {len(b)} fields")
            for cell, (x, y) in enumerate(zip(a, b), start=1):
                if x != y:
                    self.value(f"line {line} field {cell}", x, y)

    def json(self, old, new, where: str = "") -> None:
        if isinstance(old, dict) and isinstance(new, dict):
            for key in sorted(old.keys() | new.keys()):
                if key not in old or key not in new:
                    self.other.append(f"{where}/{key}: only in "
                                      + ("the revision" if key in old else "the working tree"))
                else:
                    self.json(old[key], new[key], f"{where}/{key}")
        elif isinstance(old, list) and isinstance(new, list) and old != new and all(
            isinstance(item, dict) for item in old + new
        ):
            pairs = FileDiff()
            if len(old) == len(new):
                for i, (a, b) in enumerate(zip(old, new)):
                    pairs.json(a, b, f"{where}[{i}]")
                if not pairs.other:
                    self.floats += pairs.floats
                    self.largest = max(self.largest, pairs.largest)
                    return
            self.other += [f"{where}: - {json.dumps(item, sort_keys=True)}"
                           for item in old if item not in new]
            self.other += [f"{where}: + {json.dumps(item, sort_keys=True)}"
                           for item in new if item not in old]
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (a, b) in enumerate(zip(old, new)):
                self.json(a, b, f"{where}[{i}]")
        elif old != new:
            self.value(where or "/", old, new)


def compare(base: Path, work: Path) -> tuple[list[str], float]:
    """Report lines for two bundles and the largest float difference."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in work.iterdir()})
    lines, largest = [], 0.0
    for name in names:
        old, new = base / name, work / name
        if not old.exists() or not new.exists():
            lines.append(f"  {name}: only in " + ("the revision" if old.exists()
                                                   else "the working tree"))
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        diff = FileDiff()
        if name.endswith(".csv"):
            diff.csv(old.read_text(encoding="utf-8"), new.read_text(encoding="utf-8"))
        elif name.endswith(".json"):
            diff.json(json.loads(old.read_text(encoding="utf-8")),
                      json.loads(new.read_text(encoding="utf-8")))
        else:
            lines.append(f"  {name}: differs (not sized)")
            continue
        largest = max(largest, diff.largest)
        lines.append(f"  {name}: {diff.floats} float fields differ, largest "
                     f"|delta| {diff.largest:.3g}")
        lines += [f"    {item}" for item in diff.other]
    return lines, largest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    rev = parser.parse_args(argv).rev

    scratch = Path(tempfile.mkdtemp(prefix="bundle-diff-"))
    base = scratch / "base"
    base.mkdir()
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        identical = True
        for name, (texts, args) in corpora().items():
            if isinstance(texts, str):
                treebanks = {scratch / f"{name}.tb": texts}
            else:
                treebanks = {scratch / f"{name}-{i}.tb": text
                             for i, text in enumerate(texts, start=1)}
            for treebank, text in treebanks.items():
                treebank.write_bytes(text.encode("utf-8"))
            bundles = {side: scratch / f"{name}-{side}" for side in ("base", "work")}
            analyze(base, list(treebanks), bundles["base"], args)
            analyze(ROOT, list(treebanks), bundles["work"], args)
            lines, largest = compare(bundles["base"], bundles["work"])
            if lines:
                identical = False
                print(f"{name}: DIFFERENT ({rev} vs working tree), "
                      f"largest |delta| {largest:.3g}")
                print("\n".join(lines))
            else:
                print(f"{name}: identical ({rev} vs working tree)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
