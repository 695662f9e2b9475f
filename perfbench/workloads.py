"""The three benchmark workloads: inputs, warm-up, one round, and checks.

A run repeats whole rounds of one workload.  Each round does the same
operations on the same inputs; an operation is one item whose outputs are
checked after the timed phase (one ``analyze`` bundle, one fitted sample, or
one century of the ingest pipeline).  Library calls go through the
``asnkit`` module attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import asnkit
import asnkit.cli

import checks
import gen

CENTURIES = (14, 15, 16, 17)
REPLICATES = 100


class Workload:
    """``make_inputs`` in set-up; ``warm_up``, then rounds, then ``check``.

    ``check`` gets one result per round, ``None`` for a round that raised,
    and returns one verdict per operation: ``operations`` per round.
    """

    operations = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    @staticmethod
    def cli_bytes(result) -> int:
        """Bytes ``asnkit.cli`` wrote in one round."""
        return 0


class TreebankWorkload(Workload):
    """A workload on one seeded Zipf treebank whose tallies the checks use."""

    corpus: dict = {}

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.treebank = work / "corpus.tb"
        self.tally_path = work / "tallies.json"

    def make_inputs(self) -> None:
        text, tallies = gen.zipf_corpus(self.seed, CENTURIES, **self.corpus)
        self.treebank.write_text(text, encoding="utf-8")
        self.tally_path.write_text(json.dumps([vars(t) for t in tallies]), encoding="utf-8")

    def tallies(self) -> list[dict]:
        return json.loads(self.tally_path.read_text(encoding="utf-8"))


class AnalyzeZipf(TreebankWorkload):
    """``asnkit analyze`` end to end on a four-century Zipf corpus."""

    corpus = dict(sentences=40, vocab=150, planted_from=2, planted_sentences=15,
                  adjacent=3, distant=3, exponent=0.6, tag=1)

    def _analyze(self, treebank: Path, out: Path, seed: int) -> int:
        return asnkit.cli.main([
            "analyze", str(treebank), "--out", str(out),
            "--seed", str(seed), "--replicates", str(REPLICATES),
        ])

    def warm_up(self) -> None:
        self._analyze(_warm_treebank(self.seed, self.work), self.work / "warm", 0)

    def run_round(self, index: int, out: Path) -> dict:
        return {"out": str(out), "rc": self._analyze(self.treebank, out, self.seed)}

    @staticmethod
    def cli_bytes(result) -> int:
        if result is None:
            return 0
        return sum(p.stat().st_size for p in Path(result["out"]).iterdir())

    def check(self, results) -> list[bool]:
        """The first bundle is recomputed; every round must write it again.

        Every round runs ``analyze`` with the same seed, so the bundles must
        be byte-identical.
        """
        first = next((r for r in results if r is not None), None)
        tallies = self.tallies()

        def failures(r) -> list[str]:
            if r["rc"] != 0:
                return [f"analyze exited with {r['rc']}"]
            return checks.analyze_bundle(Path(r["out"]), tallies)

        first_ok = first is not None and _passes(failures, first)
        return [
            first_ok and r is not None and r["rc"] == 0
            and checks.same_tree(Path(first["out"]), Path(r["out"]))
            for r in results
        ]


class FitBootstrap(Workload):
    """Fit, bootstrap, LRTs and CCDF rows on three samples.

    The Zipf sample is fixed and always bootstraps with seed 0.  ``--seed``
    draws the power-law and lognormal samples and seeds their bootstraps.
    Every round of a run repeats the same work.  On the Zipf sample (alpha
    near 2) a replicate's time and memory follow the largest value it draws:
    over 8 bootstrap seeds one set of 100 replicates took twice another's
    time, and with seeded Zipf data a run's peak RSS ranged 284-360 MB over
    5 seeds.  A fixed Zipf fit keeps that spread out of the comparison between
    runs, while its heavy replicates are still timed in every round.
    """

    names = ("zipf", "powerlaw", "lognormal")
    operations = len(names)
    alpha = 2.5
    #: LRT alternatives per sample.  The lognormal LRT is left out on the
    #: power-law sample: with xmin = 1 it raises TypeError on most draws.
    alternatives = (("exponential", "lognormal"), ("exponential",),
                    ("exponential", "lognormal"))

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.paths = [work / f"{name}.npy" for name in self.names]

    def make_inputs(self) -> None:
        samples = (
            gen.zipf_degrees(0, sentences=800, vocab=1600, tag=2),
            gen.powerlaw_sample(self.seed, self.alpha, 1, 5000, tag=3),
            gen.lognormal_sample(self.seed, 2.5, 0.25, 5000, tag=4),
        )
        for path, sample in zip(self.paths, samples):
            np.save(path, sample)

    def _fit(self, data, boot_seed: int, alternatives) -> dict:
        fit = asnkit.fit_power_law(data)
        fit = asnkit.bootstrap_pvalue(fit, data, replicates=REPLICATES, seed=boot_seed)
        lrts = {alt: asnkit.lrt(data, fit, alt) for alt in alternatives}
        rows = asnkit.ccdf_rows(data, fit)
        return {
            "alpha": fit.alpha, "xmin": fit.xmin, "ks": fit.ks, "n_tail": fit.n_tail,
            "p_value": fit.p_value, "replicates": fit.replicates,
            "lrt": {alt: r.favored for alt, r in lrts.items()},
            "ccdf_rows": len(rows),
        }

    def warm_up(self) -> None:
        self.samples = [np.load(path) for path in self.paths]
        self._fit(self.samples[2][:500], 0, self.alternatives[2])

    def run_round(self, index: int, out: Path) -> list[dict]:
        return [
            self._fit(data, boot_seed, alternatives)
            for data, boot_seed, alternatives
            in zip(self.samples, (0, self.seed, self.seed), self.alternatives)
        ]

    def check(self, results) -> list[bool]:
        verdicts = []
        for fits in results:
            for i, (name, sample, alternatives) in enumerate(
                zip(self.names, self.samples, self.alternatives)
            ):
                verdicts.append(_passes(
                    self._fit_failures, fits and fits[i], name, sample.tolist(), alternatives,
                ))
        return verdicts

    def _fit_failures(self, fit: dict, name: str, data: list[int], alternatives) -> list[str]:
        failures = checks.fit_failures(data, fit)
        if fit["replicates"] != REPLICATES:
            failures.append(f"{REPLICATES - fit['replicates']} replicates discarded")
        if fit["ccdf_rows"] != len(set(data)):
            failures.append("ccdf rows differ from distinct values")
        if sorted(fit["lrt"]) != sorted(alternatives):
            failures.append(f"LRTs run: {sorted(fit['lrt'])}")
        if name == "powerlaw":
            # Five standard errors (Clauset et al. 2009, eq. 3.2).
            band = 5.0 * (fit["alpha"] - 1.0) / math.sqrt(fit["n_tail"])
            if abs(fit["alpha"] - self.alpha) > band:
                failures.append(f"alpha {fit['alpha']} not within {band:.3f} of {self.alpha}")
            if fit["lrt"]["exponential"] != "powerlaw":
                failures.append("exponential LRT does not favour the power law")
        if name == "lognormal" and not fit["p_value"] < 0.1:
            failures.append(f"lognormal lookalike kept with p {fit['p_value']}")
        return [f"{name}: {m}" for m in failures]


class IngestLarge(TreebankWorkload):
    """The library path from a treebank on disk to every per-century writer."""

    corpus = dict(sentences=1000, vocab=2500, planted_from=2, planted_sentences=40,
                  adjacent=10, distant=10, tag=5)
    operations = len(CENTURIES)

    def _pipeline(self, treebank: Path, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        policy = asnkit.MissingPolicy.DROP_ADJACENT_TO_TARGET
        pairs, record = [], {"centuries": []}
        for corpus_slice in asnkit.load_corpus(treebank):
            century = corpus_slice.century
            kept, dropped = asnkit.filter_slice(corpus_slice, policy)
            asn = asnkit.aggregate(kept.trees)
            levels = asnkit.hierarchy_levels(asn)
            stats = asnkit.hierarchy_stats(asn, levels)
            asnkit.degree_sequences(asn)
            meta = {"century": century, "seed": self.seed}
            for name, text in (
                (f"asn_{century}.csv", asnkit.edge_csv(asn, metadata=meta)),
                (f"asn_{century}.dot", asnkit.to_dot(asn, metadata=meta)),
                (f"asn_{century}.graphml", asnkit.to_graphml(asn, metadata=meta)),
                (f"hierarchy_{century}.csv", asnkit.level_csv(asn, levels, metadata=meta)),
            ):
                (out / name).write_text(text, encoding="utf-8")
            record["centuries"].append({
                "century": century, "kept": len(kept.trees), "dropped": len(dropped),
                "nodes": asn.node_count, "edges": asn.edge_count,
                "weight": asn.total_weight(),
                "democracy": stats.democracy, "incoherence": stats.incoherence,
            })
            pairs.append((asn, levels))
        events = asnkit.detect_emergent_heads(pairs, band=10, min_gain=5)
        planted = asnkit.NodeKey(gen.PLANTED[0], asnkit.GrammaticalRole.from_code(gen.PLANTED[1]))
        (trajectory,) = asnkit.track([planted], pairs)
        record["events"] = [[e.key.lemma, e.key.role_code, e.century] for e in events]
        record["planted"] = [[p.present, p.frequency, p.is_head] for p in trajectory.points]
        return record

    def warm_up(self) -> None:
        self._pipeline(_warm_treebank(self.seed, self.work), self.work / "warm")

    def run_round(self, index: int, out: Path) -> dict:
        return {"out": str(out), "record": self._pipeline(self.treebank, out)}

    def check(self, results) -> list[bool]:
        """The first round is checked in full; later rounds must reproduce it."""
        first = next((r for r in results if r is not None), None)
        first_ok = [False] * self.operations
        if first is not None:
            tallies = self.tallies()
            first_ok = [
                _passes(self._century_failures, first, tally, index)
                for index, tally in enumerate(tallies)
            ]
            if len(tallies) != self.operations:
                first_ok = [False] * self.operations
                _report([f"the generator tallied {len(tallies)} centuries"])
        verdicts = []
        for r in results:
            same = (r is not None and r["record"] == first["record"]
                    and checks.same_tree(Path(first["out"]), Path(r["out"])))
            verdicts += [ok and same for ok in first_ok]
        return verdicts

    def _century_failures(self, first: dict, tally: dict, index: int) -> list[str]:
        out, record = Path(first["out"]), first["record"]
        c = tally["century"]
        if len(record["centuries"]) != len(CENTURIES):
            return [f"the pipeline returned {len(record['centuries'])} centuries"]
        if len(record["planted"]) != len(CENTURIES):
            return [f"the planted head's trajectory has {len(record['planted'])} points"]
        got = record["centuries"][index]
        failures = [
            f"century {c}: {key} {got[key]} != generator's {tally[key]}"
            for key in ("century", "kept", "dropped", "nodes", "edges", "weight")
            if got[key] != tally[key]
        ]
        edges = checks.read_edges(out / f"asn_{c}.csv")
        levels = checks.read_levels(out / f"hierarchy_{c}.csv")
        failures += checks.tally_failures(tally, levels, edges)
        counts = (tally["nodes"], tally["edges"])
        if checks.graphml_counts(out / f"asn_{c}.graphml") != counts:
            failures.append(f"century {c}: GraphML node/edge counts differ")
        if checks.dot_counts(out / f"asn_{c}.dot") != counts:
            failures.append(f"century {c}: DOT node/edge counts differ")
        residual = checks.normal_equation_residual(levels, edges)
        if residual > checks.LEVEL_TOL:
            failures.append(f"century {c}: normal-equation residual {residual:.3g}")
        # The planted head's rank is not checked: on the LSQR path the
        # level-0 band is ordered by rounding noise (see README.md).
        present = index >= self.corpus["planted_from"]
        expected = [present, self.corpus["planted_sentences"] if present else 0, present]
        if record["planted"][index] != expected:
            failures.append(f"century {c}: planted head trajectory point differs")
        return failures


WORKLOADS = {
    "analyze-zipf": AnalyzeZipf,
    "fit-bootstrap": FitBootstrap,
    "ingest-large": IngestLarge,
}


def _warm_treebank(seed: int, work: Path) -> Path:
    """A tiny corpus of the same make-up, to run every code path once."""
    text, _ = gen.zipf_corpus(seed, CENTURIES, sentences=12, vocab=40,
                              planted_from=2, planted_sentences=2,
                              adjacent=1, distant=1, tag=9)
    path = work / "warm.tb"
    path.write_text(text, encoding="utf-8")
    return path


def _passes(failures, result, *args) -> bool:
    """True when a round's result exists and ``failures`` finds no fault.

    A check that raises, for instance on an ``error`` entry where numbers
    were expected, is a failure like any other.
    """
    if result is None:
        return False
    try:
        found = failures(result, *args)
    except Exception as exc:
        found = [f"check raised {exc!r}"]
    return not _report(found)


def _report(failures: list[str]) -> bool:
    """Print failures to stderr; True when there were any."""
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    return bool(failures)
