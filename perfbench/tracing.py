"""Per-layer tracing of asnkit from outside the library.

The tracer replaces every public function of the traced modules, in every
asnkit namespace that holds a reference to it (``asnkit.summarize``,
``asnkit.stats.summarize`` and ``asnkit.cli.summarize`` are three lookups of
one function), by a wrapper that records a span.  ``asnkit.hierarchy.lsqr``
is wrapped the same way so the level solver's fallback path is visible.

Spans are ``[id, parent id, label, start, end]`` lists kept in memory and
written out once, at the end of the run.  Counts that only the return values
show (sentences kept, nodes, LSQR iterations, replicates kept) are taken at
the same boundaries.  Each traced round records into its own tracer, whose
span 0 is the round itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Modules whose public functions are traced, by their short layer name.
LAYERS = ("corpus", "network", "hierarchy", "stats", "powerlaw", "diachrony", "cli")

#: Reported per-layer metrics, name -> unit, as ``BENCHMARK.json`` lists them.
#: ``.s`` is summed self time per round, ``.calls`` calls per round, the rest
#: counts per round.
PER_LAYER = {
    metric["name"]: metric["unit"]
    for metric in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer"]
}


def _requested_replicates(fn, args, kwargs) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["replicates"]


class Tracer:
    """Records a span and its counts at every traced function boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, label: str) -> int:
        """Open a span under the innermost open one; returns its id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, label, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][4] = time.perf_counter()

    def _count(self, label: str, fn, args, kwargs, result) -> None:
        c = self.counts
        if label == "corpus.filter_slice":
            c["corpus.sentences_kept"] += len(result[0].trees)
            c["corpus.sentences_dropped"] += len(result[1])
        elif label == "network.aggregate":
            c["network.nodes"] += result.node_count
            c["network.edges"] += result.edge_count
        elif label == "hierarchy.lsqr":
            c["hierarchy.lsqr.iterations"] += int(result[2])
        elif label == "powerlaw.bootstrap_pvalue":
            c["powerlaw.replicates_kept"] += result.replicates
            c["powerlaw.replicates_discarded"] += (
                _requested_replicates(fn, args, kwargs) - result.replicates
            )

    def _wrap(self, fn, label: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            tracer._count(label, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions in every loaded asnkit namespace."""
        labels: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = sys.modules[f"asnkit.{layer}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    labels[id(obj)] = (obj, f"{layer}.{name}")
        solver = sys.modules["asnkit.hierarchy"].lsqr
        labels[id(solver)] = (solver, "hierarchy.lsqr")

        wrappers = {key: self._wrap(fn, label) for key, (fn, label) in labels.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "asnkit" and not modname.startswith("asnkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is labels[id(value)][0]:
                    setattr(module, attr, wrappers[id(value)])

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_times(spans: list[list], reported) -> dict[str, list]:
    """Self time, inclusive time and calls per label below root span 0.

    A span's exclusive time (its duration minus its children's) counts as
    self time of its nearest enclosing span whose label is in ``reported``,
    so unreported helpers such as ``corpus.validate_tree`` fold into
    ``corpus.load_corpus`` while ``hierarchy.lsqr`` stays apart from
    ``hierarchy.hierarchy_levels``.
    """
    owner: dict[int, str | None] = {0: None}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, label, start, end in spans[1:]:
        owner[sid] = label if label in reported else owner[parent]
        child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for sid, _, label, start, end in spans[1:]:
        if owner[sid] is not None:
            totals[owner[sid]][0] += (end - start) - child_time[sid]
        totals[label][1] += end - start
        totals[label][2] += 1
    return totals


def replicate_ms(spans: list[list]) -> list[float]:
    """Per-replicate latency inside every bootstrap span, in ms.

    A replicate runs from the end of the previous replicate's fit (or the
    bootstrap's start) to the end of its own fit, so resampling and sampling
    are counted with the fit they feed.
    """
    previous = {s[0]: s[3] for s in spans if s[2] == "powerlaw.bootstrap_pvalue"}
    out = []
    for _, parent, label, _, end in spans:
        if label == "powerlaw.fit_power_law" and parent in previous:
            out.append((end - previous[parent]) * 1e3)
            previous[parent] = end
    return out


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-round means over traced rounds; a layer never called reads 0.

    ``.s`` is self time as :func:`layer_times` attributes it, except
    ``cli.main.s``, which is the inclusive time of ``asnkit.cli.main``;
    ``cli.self.s`` is the time left in ``cli`` itself: orchestration,
    formatting and file writes.
    """
    reported = {name[:-2] for name in PER_LAYER if name.endswith(".s")}
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    counts: Counter = Counter()
    latencies: list[float] = []
    for traced in rounds:
        for label, values in layer_times(traced["spans"], reported).items():
            for i, value in enumerate(values):
                totals[label][i] += value
        counts.update(traced["counts"])
        latencies += replicate_ms(traced["spans"])
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if name == "cli.main.s":
            value = totals[stem][1]
        elif name == "cli.self.s":
            value = sum(t[0] for label, t in totals.items() if label.startswith("cli."))
        elif stat == "s":
            value = totals[stem][0]
        elif stat == "calls":
            value = totals[stem][2]
        else:
            value = counts.get(name, 0)
        metrics[name] = value / len(rounds)
    if len(latencies) >= 2:
        metrics["powerlaw.replicate_ms.p50"] = statistics.median(latencies)
        metrics["powerlaw.replicate_ms.p90"] = statistics.quantiles(latencies, n=10)[8]
    return metrics
