"""Independent reference implementations used to pin expected test values.

Everything here is written the slow, obvious way — explicit loops, dense
matrices, direct summation, a different optimizer — so the fast library
code is checked against a genuinely separate route to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy import optimize, special

from asnkit import (
    Asn,
    DegenerateDataError,
    GrammaticalRole,
    NodeKey,
    fit_power_law,
    hurwitz_zeta,
    sample_discrete_powerlaw,
)
from asnkit.network import EdgeData

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def nkey(lemma: str, role: GrammaticalRole | None = GrammaticalRole.NOUN) -> NodeKey:
    return NodeKey(lemma=lemma, role=role)


def make_asn(edges, isolated=(), century=None) -> Asn:
    """Build a network directly from (src_lemma, dst_lemma, weight) triples.

    All nodes get the noun role; ``isolated`` adds edgeless lemmas.  Node
    frequencies are irrelevant to topology-level code, so every node gets
    frequency 1.
    """
    asn = Asn(century=century)
    for lemma in isolated:
        asn.frequency.setdefault(nkey(lemma), 1)
    for src, dst, weight in edges:
        u, v = nkey(src), nkey(dst)
        asn.frequency.setdefault(u, 1)
        asn.frequency.setdefault(v, 1)
        data = asn.edges.setdefault((u, v), EdgeData())
        data.weight += weight
    return asn


def reverse(asn: Asn) -> Asn:
    """The same network with every edge direction flipped."""
    rev = Asn(century=asn.century, frequency=dict(asn.frequency))
    for (u, v), data in asn.edges.items():
        rev.edges[(v, u)] = EdgeData(weight=data.weight, rules=set(data.rules))
    return rev


def random_asn(rng: np.random.Generator, n: int, p: float = 0.35,
               max_weight: int = 5) -> Asn:
    """Random weighted digraph on lemmas n0..n{n-1}; cycles and 2-cycles allowed."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((f"n{i}", f"n{j}", int(rng.integers(1, max_weight + 1))))
    return make_asn(edges, isolated=[f"n{i}" for i in range(n)])


def random_tree_heads(rng: np.random.Generator, n: int) -> list[int]:
    """Random head vector of a valid n-token tree, in random surface order."""
    # Grow a random recursive tree on labels 0..n-1 (parent precedes child),
    # then scatter the labels across sentence positions so head pointers run
    # in both directions.
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
    position = rng.permutation(n)  # label -> 0-based sentence position
    heads = [0] * n
    for label in range(n):
        pos = int(position[label])
        heads[pos] = 0 if parent[label] < 0 else int(position[parent[label]]) + 1
    return heads


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def heads_form_tree(heads) -> bool:
    """Brute-force validity of a head vector: one root, in range, acyclic."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    if any(h < 0 or h > n for h in heads):
        return False
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0 and steps <= n:
            node = heads[node - 1]
            steps += 1
        if node != 0:
            return False
    return True


def depth_of_heads(heads) -> int:
    """Longest root-to-token edge count, by walking every head chain.

    The hop onto the virtual head 0 is not an edge, so the root sits at
    depth 0.
    """
    best = 0
    for start in range(1, len(heads) + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
        best = max(best, steps - 1)
    return best


# ---------------------------------------------------------------------------
# Hierarchy levels
# ---------------------------------------------------------------------------


def dense_levels(asn: Asn, weighted: bool = True, backward: bool = False):
    """Minimum-norm least-squares levels via the dense pseudoinverse.

    Returns levels as a dict over node keys, shifted so the minimum is 0.
    """
    nodes = asn.nodes()
    index = {k: i for i, k in enumerate(nodes)}
    n = len(nodes)
    win = np.zeros(n)
    triples = []
    for (u, v), data in asn.edges.items():
        w = float(data.weight) if weighted else 1.0
        if backward:
            u, v = v, u
        win[index[v]] += w
        triples.append((index[u], index[v], w))
    matrix = np.eye(n)
    for iu, iv, w in triples:
        matrix[iv, iu] -= w / win[iv]
    b = (win > 0).astype(float)
    levels = np.linalg.pinv(matrix) @ b
    levels -= levels.min() if n else 0.0
    return {k: float(levels[i]) for k, i in index.items()}


def hierarchy_stats_oracle(asn: Asn, forward: dict, weighted: bool = True):
    """Weighted mean/variance of edge level differences, by explicit loop."""
    diffs, weights = [], []
    for (u, v), data in asn.edges.items():
        diffs.append(forward[v] - forward[u])
        weights.append(float(data.weight) if weighted else 1.0)
    total = sum(weights)
    mean = sum(d * w for d, w in zip(diffs, weights)) / total
    var = sum(w * (d - mean) ** 2 for d, w in zip(diffs, weights)) / total
    return 1.0 - mean, var


# ---------------------------------------------------------------------------
# Graph statistics
# ---------------------------------------------------------------------------


def summary_oracle(asn: Asn):
    """Brute-force undirected statistics: BFS distances, triangle counting."""
    nodes = asn.nodes()
    adjacency = {k: set() for k in nodes}
    for u, v in asn.edges:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    edge_count = sum(len(neigh) for neigh in adjacency.values()) // 2
    n = len(nodes)
    average_degree = 2.0 * edge_count / n

    clustering_total = 0.0
    for node in nodes:
        neigh = sorted(adjacency[node], key=lambda k: k.sort_key)
        k = len(neigh)
        if k < 2:
            continue
        links = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if neigh[b] in adjacency[neigh[a]]
        )
        clustering_total += 2.0 * links / (k * (k - 1))
    clustering = clustering_total / n

    seen: set[NodeKey] = set()
    components: list[set[NodeKey]] = []
    for node in nodes:
        if node in seen:
            continue
        queue, comp = [node], {node}
        while queue:
            current = queue.pop()
            for other in adjacency[current]:
                if other not in comp:
                    comp.add(other)
                    queue.append(other)
        seen |= comp
        components.append(comp)
    lcc = min(components, key=lambda c: (-len(c), min(k.sort_key for k in c)))

    total_dist, pairs, diameter = 0, 0, 0
    for source in lcc:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for current in frontier:
                for other in adjacency[current]:
                    if other in lcc and other not in dist:
                        dist[other] = dist[current] + 1
                        nxt.append(other)
            frontier = nxt
        for target, d in dist.items():
            if target != source:
                total_dist += d
                pairs += 1
                diameter = max(diameter, d)
    average_path_length = total_dist / pairs if pairs else 0.0

    return {
        "node_count": n,
        "edge_count": edge_count,
        "average_degree": average_degree,
        "clustering": clustering,
        "average_path_length": average_path_length,
        "diameter": diameter,
        "component_count": len(components),
        "lcc_fraction": len(lcc) / n,
    }


# ---------------------------------------------------------------------------
# Discrete power laws
# ---------------------------------------------------------------------------


def ks_oracle(tail, alpha: float, xmin: int) -> float:
    """Sup distance between tail ECDF and the model CDF, integer by integer."""
    tail = np.sort(np.asarray(tail))
    n = tail.size
    z = special.zeta(alpha, xmin)
    cdf = 0.0
    worst = 0.0
    for x in range(int(xmin), int(tail.max()) + 1):
        cdf += x ** -alpha / z
        ecdf = np.count_nonzero(tail <= x) / n
        worst = max(worst, abs(ecdf - cdf))
    return worst


def fit_oracle(data, min_tail: int = 10):
    """Tail fit via scipy's bounded scalar optimizer and the explicit KS loop.

    Returns (alpha, xmin, ks, n_tail); ties on KS keep the smallest xmin.
    """
    xs = np.sort(np.asarray(data, dtype=float))
    best = None
    for xmin in sorted(set(xs[:-1].tolist())):
        tail = xs[xs >= xmin]
        if tail.size < min_tail:
            continue
        log_sum = float(np.log(tail).sum())

        def nll(a, _tail=tail, _xmin=xmin, _log_sum=log_sum):
            return _tail.size * math.log(special.zeta(a, _xmin)) + a * _log_sum

        res = optimize.minimize_scalar(
            nll, bounds=(1.01, 6.0), method="bounded",
            options={"xatol": 1e-10},
        )
        alpha = float(res.x)
        ks = ks_oracle(tail, alpha, int(xmin))
        if best is None or ks < best[2]:
            best = (alpha, int(xmin), ks, int(tail.size))
    if best is None:
        raise ValueError("no candidate xmin leaves a large enough tail")
    return best


def jump_ks_oracle(tail, alpha: float, xmin: int) -> float:
    """KS distance from ``scipy.special.zeta`` at every observed value and
    the integer just below it, the only places the supremum can sit.

    Unlike :func:`ks_oracle` this never walks the integers between observed
    values, so it stays cheap on tails that reach into the millions.
    """
    tail = np.sort(np.asarray(tail))
    values = np.unique(tail)
    points = np.union1d(values, values - 1)
    points = points[points >= xmin].astype(np.float64)
    cdf = 1.0 - special.zeta(alpha, points + 1.0) / special.zeta(alpha, xmin)
    ecdf = np.searchsorted(tail, points, side="right") / tail.size
    return float(np.abs(cdf - ecdf).max())


# The power-law fitter asnkit shipped before its Newton solver and jump-point
# KS: golden-section search on the likelihood and the KS distance over the
# dense integer grid.  Kept as the reference the fast fitter must match.

#: Exponent bracket and golden-section tolerance of the reference fitter.
GOLDEN_LO, GOLDEN_HI, GOLDEN_TOL = 1.01, 6.0, 1e-6


def _tail_loglik(alphas, xmins, ntails, sumlogs):
    return -ntails * np.log(hurwitz_zeta(alphas, xmins)) - alphas * sumlogs


def golden_alphas(xmins, ntails, sumlogs):
    """Per-candidate MLE exponents, all brackets iterated in lockstep."""
    m = xmins.size
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.full(m, GOLDEN_LO)
    hi = np.full(m, GOLDEN_HI)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = _tail_loglik(x1, xmins, ntails, sumlogs)
    f2 = _tail_loglik(x2, xmins, ntails, sumlogs)
    width = GOLDEN_HI - GOLDEN_LO
    iters = int(np.ceil(np.log(GOLDEN_TOL / width) / np.log(invphi)))
    for _ in range(iters):
        left = f1 >= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        old_x1, old_f1 = x1, f1
        old_x2, old_f2 = x2, f2
        x1 = np.where(left, hi - invphi * (hi - lo), old_x2)
        x2 = np.where(left, old_x1, lo + invphi * (hi - lo))
        probe = np.where(left, x1, x2)
        f_probe = _tail_loglik(probe, xmins, ntails, sumlogs)
        f1 = np.where(left, f_probe, old_f2)
        f2 = np.where(left, old_f1, f_probe)
    return (lo + hi) / 2.0


def grid_ks_distances(uniq, counts, cand, alphas, ntails):
    """KS distance per candidate over the dense integer grid [xmin, xmax].

    ``uniq``/``counts`` are the distinct values and their counts, ``cand``
    the indices of the candidate xmins in ``uniq``.  Memory is
    candidates x (xmax - xmin), so keep the largest value modest.
    """
    lo_val = int(uniq[cand[0]])
    hi_val = int(uniq[-1])
    m = cand.size
    xmins = uniq[cand].astype(np.float64)

    grid = np.arange(lo_val, hi_val + 1, dtype=np.float64)
    grid_counts = np.zeros(grid.size)
    sel = uniq >= lo_val
    grid_counts[uniq[sel] - lo_val] = counts[sel]
    csum = np.cumsum(grid_counts)

    powers = np.exp(np.outer(-alphas, np.log(grid)))
    mask = grid[None, :] >= xmins[:, None]
    powers *= mask
    cs = np.cumsum(powers, axis=1)
    z_tail = hurwitz_zeta(alphas, np.full(m, float(hi_val + 1)))
    cdf_fit = cs / (cs[:, -1] + z_tail)[:, None]

    start = (uniq[cand] - lo_val).astype(np.int64)
    below = np.where(start > 0, csum[np.maximum(start - 1, 0)], 0.0)
    ecdf = (csum[None, :] - below[:, None]) / ntails[:, None].astype(np.float64)
    return np.abs(cdf_fit - ecdf).max(axis=1, initial=0.0, where=mask)


def tail_candidates(data, min_tail: int = 10):
    """(uniq, counts, cand, ntails, sumlogs) exactly as the fitter sets them up."""
    uniq, counts = np.unique(np.asarray(data, dtype=np.int64), return_counts=True)
    ntails = counts[::-1].cumsum()[::-1]
    sumlogs = (counts * np.log(uniq))[::-1].cumsum()[::-1]
    cand = np.flatnonzero(ntails[:-1] >= min_tail)
    return uniq, counts, cand, ntails[cand], sumlogs[cand]


def grid_fit(data):
    """Golden-section exponents and grid KS; returns (alpha, xmin, ks, n_tail)."""
    uniq, counts, cand, ntails, sumlogs = tail_candidates(data)
    alphas = golden_alphas(uniq[cand].astype(np.float64), ntails, sumlogs)
    distances = grid_ks_distances(uniq, counts, cand, alphas, ntails)
    best = int(np.argmin(distances))
    return (float(alphas[best]), int(uniq[cand[best]]), float(distances[best]),
            int(ntails[best]))


# The bootstrap asnkit ran before it fitted replicates in lockstep batches:
# draw one synthetic sample, fit it alone, repeat.


def bootstrap_samples(fit, data, count, seed):
    """The synthetic data sets of a bootstrap, one replicate at a time.

    Each draws from its own ``SeedSequence(seed).spawn`` child: a binomial
    tail size, points resampled from below xmin, then the power-law tail.
    """
    x = np.asarray(data, dtype=np.int64)
    below = x[x < fit.xmin]
    samples = []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.Generator(np.random.PCG64(child))
        k = int(rng.binomial(x.size, fit.n_tail / x.size))
        parts = [rng.choice(below, size=x.size - k, replace=True)] if x.size > k else []
        if k:
            parts.append(sample_discrete_powerlaw(fit.alpha, fit.xmin, k, rng))
        samples.append(np.concatenate(parts))
    return samples


def reference_bootstrap(fit, data, replicates, seed):
    """Per-replicate bootstrap p-value; returns (fit with p-value, fits).

    ``fits`` holds every replicate's ``fit_power_law`` result, or None for a
    degenerate replicate.  More than 10% degenerate raises RuntimeError.
    """
    fits = []
    for sample in bootstrap_samples(fit, data, replicates, seed):
        try:
            fits.append(fit_power_law(sample))
        except DegenerateDataError:
            fits.append(None)
    kept = [f for f in fits if f is not None]
    if replicates - len(kept) > 0.1 * replicates:
        raise RuntimeError(
            f"{replicates - len(kept)} of {replicates} bootstrap replicates "
            "were degenerate"
        )
    exceed = sum(f.ks >= fit.ks for f in kept)
    result = replace(fit, p_value=exceed / len(kept), replicates=len(kept), seed=seed)
    return result, fits
