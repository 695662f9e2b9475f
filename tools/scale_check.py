#!/usr/bin/env python3
"""``asnkit analyze`` at paper scale: time, memory, exact topology and p-value.

Usage::

    python3 tools/scale_check.py

Generates the seven-century corpus (centuries 11-17, about 11,150 nodes
and 54,000 edges per century, 12.8 MB) with ``perfbench/gen.py``::

    zipf_corpus(0, (11, ..., 17), sentences=8000, vocab=12000,
                planted_from=1, planted_sentences=40, adjacent=10,
                distant=10, exponent=1.1, tag=9)

then runs ``python -m asnkit.cli analyze --replicates 100`` on it and prints
the run's wall time and peak RSS.  It then checks

* the bundle with ``perfbench/checks.py``'s ``analyze_bundle``: every number
  recomputed from the bundle's own files, the sizes against the generator's
  tallies;
* the first century's path-length sum and diameter against the block-wise
  ``csgraph.shortest_path`` reference of ``tests/oracles.py``, and its
  per-node triangle counts against the reference ``A * (A @ A)`` row sums,
  each exactly, both from the kernels and as written in ``summary_11.json``;
* the first century's power-law fit and bootstrap p-value as written in
  ``powerlaw_11.json`` against ``fit_power_law`` and the per-replicate
  ``reference_bootstrap`` of ``tests/oracles.py`` (total degree, seed 0,
  100 replicates), exactly, and the same fit and p-value of its in- and
  out-degrees from ``bootstrap_pvalue`` against the reference: at this
  scale the bootstrap's staged KS scan stops earliest, most candidates lie
  past the zeta's summation horizon, and every p-value must still be the
  full scan's.  The reference draws its replicates by the plain binary
  search of ``reference_draws``, not by the sampler's guide table.

Exits 1 on any failed check, or when ``analyze`` takes longer than
``CEILING_S``.  ``analyze_bundle`` holds one century's all-pairs distances,
about 2 GB.  Needs the test extras (``pip install -e .[test]``) for
``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CENTURIES = tuple(range(11, 18))

#: Eight to ten times the 8-10 s the run took on a 2-CPU x86-64 VM (152-155
#: MB peak RSS).  Raising it to let a slower change pass defeats the check.
CEILING_S = 80.0

#: Bootstrap replicates of the ``analyze`` run and of the reference.
REPLICATES = 100


def first_century(treebank: Path):
    """The first century's network as ``analyze`` builds it, under the
    default missing policy."""
    from asnkit import aggregate, filter_slice, load_corpus

    kept, _ = filter_slice(load_corpus(treebank)[0], "drop-adjacent-to-target")
    return aggregate(kept.trees)


def topology_failures(asn, summary: dict) -> list[str]:
    """The kernels and written summary against the references."""
    import numpy as np
    from asnkit.stats import _largest_component, _path_lengths, _projection, _triangles
    from oracles import reference_path_lengths, reference_twice_triangles

    adjacency = _projection(asn)
    _, lcc = _largest_component(adjacency)
    m = lcc.size
    component = adjacency[lcc][:, lcc]
    start = time.perf_counter()
    total, diameter = reference_path_lengths(component)
    twice_triangles = reference_twice_triangles(adjacency)
    print(f"references: {time.perf_counter() - start:.1f} s; {m} nodes in the "
          f"largest component, path-length sum {total}, diameter {diameter}")
    failures = []
    if _path_lengths(component) != (total, diameter):
        failures.append(f"path lengths {_path_lengths(component)} != {(total, diameter)}")
    if not np.array_equal(2 * _triangles(adjacency), twice_triangles):
        failures.append("triangle counts differ from the A * (A @ A) row sums")
    degrees = np.diff(adjacency.indptr).tolist()
    ratios = [0 if t == 0 else t / (d * (d - 1))
              for d, t in zip(degrees, twice_triangles.tolist())]
    written = {
        "diameter": diameter,
        "average_path_length": total / (m * (m - 1)),
        "clustering": math.fsum(ratios) / len(ratios),
    }
    for key, value in written.items():
        if summary[key] != value:
            failures.append(f"summary {key} {summary[key]!r} != {value!r}")
    return failures


def pvalue_failures(asn, written: dict) -> list[str]:
    """The written total-degree fit and p-value, and the in- and out-degree
    ones from ``bootstrap_pvalue``, against the per-replicate reference."""
    from asnkit import bootstrap_pvalue, degree_sequences, fit_power_law
    from oracles import reference_bootstrap

    failures = []
    for variable, sequence in degree_sequences(asn).items():
        # ``analyze``'s defaults: zeros dropped, seed 0
        data = [d for d in sequence if d > 0]
        fit = fit_power_law(data)
        start = time.perf_counter()
        expected, _ = reference_bootstrap(fit, data, REPLICATES, 0)
        print(f"reference bootstrap, {variable} degree: "
              f"{time.perf_counter() - start:.1f} s; xmin {expected.xmin}, "
              f"n_tail {expected.n_tail}, p {expected.p_value}")
        if variable == "total":
            got = written
        else:
            got = vars(bootstrap_pvalue(fit, data, REPLICATES, 0))
        failures += [
            f"powerlaw {variable} degree {key} {got.get(key)!r} != "
            f"{getattr(expected, key)!r}"
            for key in ("alpha", "xmin", "ks", "n_tail", "p_value", "replicates")
            if got.get(key) != getattr(expected, key)
        ]
    return failures


def main() -> int:
    sys.path[:0] = [str(ROOT / d) for d in ("src", "perfbench", "tests")]
    import checks
    import gen

    with tempfile.TemporaryDirectory(prefix="scale-check-") as scratch:
        work = Path(scratch)
        text, tallies = gen.zipf_corpus(
            0, CENTURIES, sentences=8000, vocab=12000, planted_from=1,
            planted_sentences=40, adjacent=10, distant=10, exponent=1.1, tag=9,
        )
        treebank, out = work / "corpus.tb", work / "bundle"
        treebank.write_text(text, encoding="utf-8")
        print(f"corpus: {len(text.encode('utf-8')) / 1e6:.1f} MB, nodes per century "
              f"{min(t.nodes for t in tallies)}-{max(t.nodes for t in tallies)}")

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "asnkit.cli", "analyze", str(treebank),
             "--out", str(out), "--replicates", str(REPLICATES)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"analyze --replicates {REPLICATES}: {wall:.1f} s wall, {peak:.0f} MB peak RSS "
              f"(ceiling {CEILING_S:.0f} s)")

        failures = [] if wall <= CEILING_S else [
            f"analyze took {wall:.1f} s, above the {CEILING_S:.0f} s ceiling"]
        failures += checks.analyze_bundle(out, [vars(t) for t in tallies])
        century = CENTURIES[0]
        summary, powerlaw = (
            json.loads((out / f"{name}_{century}.json").read_text(encoding="utf-8"))
            for name in ("summary", "powerlaw"))
        asn = first_century(treebank)
        failures += [f"century {century}: {f}" for f in
                     topology_failures(asn, summary["summary"]) + pvalue_failures(asn, powerlaw)]
    for failure in failures:
        print(f"FAIL {failure}")
    print("scale check:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
