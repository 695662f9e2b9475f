"""Output checks computed apart from asnkit.

Nothing here imports asnkit.  Every expected number is recomputed from the
written artifacts or the generator's own tallies with numpy and scipy, by a
route that shares no code with the library: ``scipy.sparse.csgraph`` for
paths and components, an explicit loop over ``scipy.special.zeta`` for KS
distances, and sparse normal equations for levels.  Each check returns a list
of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy import sparse
import scipy.sparse.linalg  # noqa: F401  (sparse.linalg.norm)
from scipy.sparse import csgraph
from scipy.special import zeta

#: Exponent bracket of asnkit's golden-section search; a fitted alpha on its
#: edge is a constrained maximum and is only compared on the inner side.
ALPHA_BRACKET = (1.01, 6.0)

FLOAT_TOL = 1e-12
KS_TOL = 1e-9
LEVEL_TOL = 1e-12

Node = tuple[str, str]


def _rows(path: Path) -> list[list[str]]:
    """CSV rows after the ``#`` metadata comment and the header line."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def read_edges(path: Path) -> dict[tuple[Node, Node], int]:
    return {((r[0], r[1]), (r[2], r[3])): int(r[4]) for r in _rows(path)}


def read_levels(path: Path) -> dict[Node, float]:
    """Forward level of every node in a per-node level table."""
    return {(r[0], r[1]): float(r[2]) for r in _rows(path)}


def _close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- topology ---------------------------------------------------------------


def topology(nodes: list[Node], edges) -> dict:
    """Undirected simple-projection summary with csgraph BFS and triangles."""
    index = {k: i for i, k in enumerate(nodes)}
    pairs = {tuple(sorted((index[u], index[v]))) for u, v in edges if u != v}
    n = len(nodes)
    if pairs:
        i, j = np.array(sorted(pairs)).T
    else:
        i = j = np.zeros(0, dtype=np.int64)
    adj = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)).tocsr()
    adj = (adj + adj.T).tocsr()
    count, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels, minlength=count)
    smallest_key = {}
    for node, label in zip(nodes, labels):
        smallest_key[label] = min(smallest_key.get(label, node), node)
    lcc = min(range(count), key=lambda c: (-sizes[c], smallest_key[c]))
    members = np.flatnonzero(labels == lcc)
    m = members.size
    if m > 1:
        dist = csgraph.shortest_path(
            adj[members][:, members], directed=False, unweighted=True
        ).astype(np.int64)
        total = int(dist.sum())
        diameter = int(dist.max())
        apl = total / (m * (m - 1))
    else:
        apl, diameter = 0.0, 0
    degree = np.asarray(adj.sum(axis=1)).ravel()
    triangles = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() / 2.0
    local = np.zeros(n)
    ok = degree >= 2
    local[ok] = 2.0 * triangles[ok] / (degree[ok] * (degree[ok] - 1))
    return {
        "node_count": n,
        "edge_count": len(pairs),
        "average_degree": 2.0 * len(pairs) / n,
        "clustering": float(local.mean()),
        "average_path_length": apl,
        "diameter": diameter,
        "component_count": int(count),
        "lcc_fraction": m / n,
    }


def total_degrees(nodes: list[Node], edges) -> tuple[list[int], int]:
    """Nonzero total degrees of the directed simple graph, and zeros dropped."""
    degree = {k: 0 for k in nodes}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    values = sorted(degree.values())
    nonzero = [d for d in values if d > 0]
    return nonzero, len(values) - len(nonzero)


def democracy_incoherence(levels: dict[Node, float], edges: dict) -> tuple[float, float]:
    diffs = [(levels[v] - levels[u], w) for (u, v), w in edges.items()]
    total = math.fsum(w for _, w in diffs)
    mean = math.fsum(w * h for h, w in diffs) / total
    spread = math.fsum(w * (h - mean) ** 2 for h, w in diffs) / total
    return 1.0 - mean, spread


# -- power law --------------------------------------------------------------


def ks_distance(data, alpha: float, xmin: int) -> float:
    """Sup distance between the empirical and fitted tail CDFs, by loop."""
    tail = sorted(x for x in data if x >= xmin)
    norm = zeta(alpha, xmin)
    worst = 0.0
    below = 0
    for x in range(xmin, tail[-1] + 1):
        while below < len(tail) and tail[below] <= x:
            below += 1
        fitted = 1.0 - zeta(alpha, x + 1) / norm
        worst = max(worst, abs(below / len(tail) - fitted))
    return worst


def tail_loglik(data, alpha: float, xmin: int) -> float:
    tail = [x for x in data if x >= xmin]
    return -len(tail) * math.log(zeta(alpha, xmin)) - alpha * math.fsum(
        math.log(x) for x in tail
    )


def fit_failures(data, fit: dict, delta: float = 1e-3) -> list[str]:
    """The reported alpha is a likelihood maximum and its KS distance holds."""
    out = []
    alpha, xmin = fit["alpha"], fit["xmin"]
    best = tail_loglik(data, alpha, xmin)
    for probe in (alpha - delta, alpha + delta):
        if ALPHA_BRACKET[0] <= probe <= ALPHA_BRACKET[1]:
            if tail_loglik(data, probe, xmin) > best:
                out.append(f"alpha {alpha} is beaten by {probe} at xmin {xmin}")
    if fit["n_tail"] != sum(1 for x in data if x >= xmin):
        out.append(f"n_tail {fit['n_tail']} is not the tail size at xmin {xmin}")
    ks = ks_distance(data, alpha, xmin)
    if abs(ks - fit["ks"]) > KS_TOL:
        out.append(f"ks {fit['ks']} != recomputed {ks}")
    if not 0.0 <= fit["p_value"] <= 1.0:
        out.append(f"p_value {fit['p_value']} outside [0, 1]")
    return out


# -- levels -----------------------------------------------------------------


def normal_equation_residual(levels: dict[Node, float], edges: dict) -> float:
    """Relative residual of the level system's normal equations.

    The stacked system has a row ``s(v) - sum_u w(u,v)/w_in(v) s(u) = 1`` for
    every node with in-weight and ``s(v) = 0`` for the rest.  asnkit shifts
    its least-squares solution ``x`` so the minimum is 0; ``s = x - c`` with
    an unknown ``c``, and since ``A (c 1) = c e`` (``e`` marks pinned rows),
    ``A^T (A s - b) + c A^T e`` vanishes for the best ``c``.
    """
    nodes = sorted(levels)
    index = {k: i for i, k in enumerate(nodes)}
    n = len(nodes)
    src = np.array([index[u] for u, _ in edges], dtype=np.int64)
    dst = np.array([index[v] for _, v in edges], dtype=np.int64)
    wgt = np.array(list(edges.values()), dtype=np.float64)
    w_in = np.bincount(dst, weights=wgt, minlength=n)
    a = sparse.identity(n, format="csr") - sparse.csr_matrix(
        (wgt / w_in[dst], (dst, src)), shape=(n, n)
    )
    b = (w_in > 0).astype(np.float64)
    s = np.array([levels[k] for k in nodes])
    grad = a.T @ (a @ s - b)
    shift_dir = a.T @ (1.0 - b)
    c = -float(grad @ shift_dir) / float(shift_dir @ shift_dir) if shift_dir.any() else 0.0
    residual = np.linalg.norm(grad + c * shift_dir)
    norm_a = sparse.linalg.norm(a)
    scale = norm_a * (norm_a * np.linalg.norm(s) + np.linalg.norm(b))
    return float(residual / scale)


# -- bundles ----------------------------------------------------------------


def tally_failures(tally: dict, levels: dict, edges: dict) -> list[str]:
    """One century's written level and edge tables against the generator."""
    c = tally["century"]
    failures = []
    if (len(levels), len(edges)) != (tally["nodes"], tally["edges"]):
        failures.append(f"century {c}: CSV row counts differ from the tallies")
    if sum(edges.values()) != tally["weight"]:
        failures.append(f"century {c}: CSV weights do not sum to the tally")
    return failures


def analyze_bundle(out: Path, tallies: list[dict]) -> list[str]:
    """Recompute an ``asnkit analyze`` bundle's numbers from its own files.

    The centuries, dropped sentences and per-century sizes must also equal
    the generator's ``tallies``.
    """
    failures: list[str] = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    present = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    if manifest["files"] != present:
        failures.append("manifest files differ from the files present")
    if manifest["centuries"] != [t["century"] for t in tallies]:
        failures.append(f"manifest centuries {manifest['centuries']} differ from the tallies")
    if len(manifest["dropped_sentences"]) != sum(t["dropped"] for t in tallies):
        failures.append("dropped sentences differ from the tallies")
    for tally in tallies:
        c = tally["century"]
        edges = read_edges(out / f"asn_{c}.csv")
        levels = read_levels(out / f"hierarchy_{c}.csv")
        nodes = sorted(levels)
        failures += tally_failures(tally, levels, edges)

        summary = json.loads((out / f"summary_{c}.json").read_text(encoding="utf-8"))
        expected = topology(nodes, edges)
        for key, value in expected.items():
            got = summary["summary"][key]
            same = got == value if isinstance(value, int) else _close(got, value)
            if not same:
                failures.append(f"century {c}: summary {key} {got} != {value}")
        if summary["directed_edge_count"] != len(edges):
            failures.append(f"century {c}: directed_edge_count differs")
        if summary["total_edge_weight"] != sum(edges.values()):
            failures.append(f"century {c}: total_edge_weight differs")

        stats = json.loads(
            (out / f"hierarchy_stats_{c}.json").read_text(encoding="utf-8")
        )
        democracy, incoherence = democracy_incoherence(levels, edges)
        if "error" in stats:
            failures.append(f"century {c}: hierarchy stats: {stats['error']}")
        elif not (_close(stats["democracy"], democracy)
                  and _close(stats["incoherence"], incoherence)):
            failures.append(f"century {c}: democracy/incoherence differ")

        fit = json.loads((out / f"powerlaw_{c}.json").read_text(encoding="utf-8"))
        data, zeros = total_degrees(nodes, edges)
        if fit["n"] != len(data) or fit["zeros_dropped"] != zeros:
            failures.append(f"century {c}: degree sample size differs")
        if "error" in fit:
            failures.append(f"century {c}: power-law fit: {fit['error']}")
            continue
        failures += [f"century {c}: {m}" for m in fit_failures(data, fit)]
        for comparison in fit["lrt"]:
            what = f"century {c}: {comparison['alternative']} LRT"
            if "error" in comparison:
                failures.append(f"{what}: {comparison['error']}")
            elif not 0.0 <= comparison["p_value"] <= 1.0:
                failures.append(f"{what} p_value outside [0, 1]")
    return failures


def same_tree(a: Path, b: Path) -> bool:
    """Byte equality of two directories of files."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def graphml_counts(path: Path) -> tuple[int, int]:
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = ET.parse(path).getroot().find(f"{ns}graph")
    return len(graph.findall(f"{ns}node")), len(graph.findall(f"{ns}edge"))


def dot_counts(path: Path) -> tuple[int, int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    edges = sum(1 for line in lines if " -> " in line)
    nodes = sum(1 for line in lines if line.endswith("];")) - edges
    return nodes, edges
