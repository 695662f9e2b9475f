"""Hierarchical levels and hierarchy statistics for word networks.

The forward hierarchical level of a node generalizes depth to weighted
graphs with cycles: nodes with no in-neighbours sit at level 0, and every
other node sits one step below the weighted mean of its in-neighbours,

    s(v) = 1 + sum_u w(u, v) * s(u) / w_in(v)      for w_in(v) > 0.

Pinned (in-weight 0) nodes contribute ``s(v) = 0`` rows to the square level
system.  One rule picks the solver per direction from the strong components.
An acyclic graph (no self-loop, every strong component a single node) is
solved exactly by propagation in topological order.  Any other system gets
its minimum-norm least-squares solution from one sparse LU factorization,
with the nodes eliminated in ascending degree order, hubs last, which on
hub-dominated word networks costs less and fills less than SuperLU's own
orderings.  When every node is reachable from a pinned node the system is
nonsingular and that is its unique solution.  Otherwise each closed class
(a strong component that nothing outside it feeds) makes the system
singular; one node of each is pinned for the factorization, and the
solution is projected with the null vectors the same factor gives.  Pinned
levels are exactly 0 on a nonsingular system; levels are shifted so their
minimum is exactly 0.  Backward levels apply the same construction to
out-edges, measuring distance from the bottom of the hierarchy instead of
the top.  Unweighted, every edge counts as 1; :class:`HierarchyLevels`
records that ``weighted`` choice, and :func:`hierarchy_stats` follows it.
Each node's level rank is solved with the levels: forward level ascending,
then out-weight descending, then (role, lemma).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
# The first name is unused here; perfbench/tracing.py looks it up (ROADMAP item 4).
from scipy.sparse.linalg import lsqr, splu

from .network import Asn, csv_table

logger = logging.getLogger(__name__)

__all__ = [
    "HierarchyLevels",
    "HierarchyStats",
    "hierarchy_levels",
    "hierarchy_stats",
    "level_csv",
]


@dataclass(frozen=True, eq=False)
class HierarchyLevels:
    """Forward and backward levels of one network, ``network``.

    ``forward`` and ``backward`` are float arrays aligned with its ``keys``.
    ``residual`` is the larger of the two directional solve residuals.  It
    is at numerical zero when the system is nonsingular (exact propagation,
    or LU in hubs-last order); on a singular system, whose minimum-norm
    least-squares solution the same LU projects, it measures how far the
    equations are from holding.  ``weighted`` records whether the edges
    counted with their weights or as 1 each; :func:`hierarchy_stats`
    averages the edge differences the same way.  ``rank`` is each node's
    1-based level rank, aligned with ``asn.keys``: forward level ascending,
    then total outgoing weight descending, then node index, which is
    (role, lemma) order; the out-weight sums edge weights even when
    ``weighted`` is false.  It is the paper's level ranking, the one
    ``track`` and ``detect_emergent_heads`` report; ``np.argsort(rank)``
    lists the nodes in rank order.  Levels are equal (``==``) when every
    field is, the arrays element by element.  The readers of levels refuse
    them with a network other than ``network``, unless that one has the
    same ``keys``, ``src``, ``dst`` and ``weight``, all the levels depend on.
    """

    network: Asn = field(repr=False)
    forward: np.ndarray
    backward: np.ndarray
    residual: float
    weighted: bool
    rank: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchyLevels):
            return NotImplemented
        return (
            self.network == other.network
            and self.weighted == other.weighted
            and self.residual == other.residual
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("forward", "backward", "rank")
            )
        )


@dataclass(frozen=True)
class HierarchyStats:
    """Democracy and incoherence of the level differences along edges.

    For each edge (u -> v) the difference is ``h = s(v) - s(u)`` computed
    with forward levels.  The democracy coefficient is 1 minus the weighted
    mean of ``h``; the hierarchical incoherence is the weighted population
    variance of ``h``, both weighted as the levels were.  A perfectly layered
    graph has democracy 0 and incoherence 0; a two-node cycle has equal
    levels and hence democracy 1.
    """

    democracy: float
    incoherence: float


def _edge_arrays(asn: Asn, direction: str, weighted: bool):
    """(source, target, weight) arrays for the solver, in edge order."""
    src, dst = (asn.src, asn.dst) if direction == "forward" else (asn.dst, asn.src)
    wgt = asn.weight.astype(np.float64) if weighted else np.ones(asn.edge_count)
    return src, dst, wgt


def _propagate_exact(
    n: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray, w_in: np.ndarray
) -> np.ndarray:
    """Exact levels of an acyclic graph, resolved in topological order.

    A node is resolved once all its in-neighbours are, starting from the
    pinned (in-weight 0) set.  Exactness matters: on layered graphs it makes
    downstream statistics exactly 0 instead of 1e-16-ish.  Each sum adds the
    in-edges one at a time in edge order; the builtin ``sum`` of floats is
    compensated from Python 3.12 and would change the bits.
    """
    preds: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for u, v, w in zip(src.tolist(), dst.tolist(), wgt.tolist()):
        preds[v].append((u, w))
        succs[u].append(v)
        waiting[v] += 1
    weight_in = w_in.tolist()
    levels = [0.0] * n
    order = [i for i in range(n) if not waiting[i]]
    for node in order:
        for succ in succs[node]:
            waiting[succ] -= 1
            if not waiting[succ]:
                total = 0.0
                for u, w in preds[succ]:
                    total += w * levels[u]
                levels[succ] = 1.0 + total / weight_in[succ]
                order.append(succ)
    return np.array(levels)


def _solve_direction(
    asn: Asn, direction: str, weighted: bool
) -> tuple[np.ndarray, float]:
    """Levels of one direction and the residual norm of their level system:
    exact propagation on an acyclic graph, and the minimum-norm
    least-squares solution by one sparse LU factorization on any other."""
    src, dst, wgt = _edge_arrays(asn, direction, weighted)
    n = asn.node_count
    if n == 0:
        return np.zeros(0), 0.0

    w_in = np.zeros(n)
    np.add.at(w_in, dst, wgt)
    matrix, b = _system_matrix(n, src, dst, wgt, w_in)
    # The matrix holds the reversed edges, which have the same strong
    # components.  Acyclic, self-loops included, exactly when every
    # component is one node and no edge is a self-loop.  A closed class is
    # a component with no in-edge from another one that is not a pinned
    # node; the system is singular exactly when there is one.
    count, labels = connected_components(matrix, connection="strong")
    fed = np.zeros(count, dtype=bool)
    fed[labels[dst][labels[src] != labels[dst]]] = True
    size = f"on {n} nodes, {src.size} edges"
    if count == n and not np.any(src == dst):
        logger.debug("%s levels: exact propagation %s", direction, size)
        levels = _propagate_exact(n, src, dst, wgt, w_in)
    else:
        _, first = np.unique(labels, return_index=True)
        anchors = first[~fed & (w_in[first] > 0.0)]
        levels, fill = _lu_min_norm(matrix, b, anchors, src, dst)
        logger.debug(
            "%s levels: LU %s, %d closed classes, fill %d",
            direction, size, anchors.size, fill,
        )

    # Residual of the solve itself, before the min-to-zero shift (the shift
    # moves pinned rows off their s=0 target but does not change edge
    # differences).
    residual = float(np.linalg.norm(matrix @ levels - b))
    return levels - levels.min(), residual


def _lu_min_norm(matrix, b, anchors, src, dst) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares levels of a level system, given one
    anchor node per closed class, from one sparse LU factorization with the
    nodes in ascending degree order; returns the levels and the fill
    ``L.nnz + U.nnz``.

    Eliminating low-degree nodes first and the hubs last (Tinney & Walker,
    Proc. IEEE 55(11), 1967, scheme 1) gives a hub-dominated network less
    fill than SuperLU's minimum degree orderings, at the cost of one sort.
    The anchors' rows become identity rows, so every node reaches a pinned
    row and the matrix is a nonsingular M-matrix, as is any symmetric
    permutation of it: diagonal pivots need no row exchange.  With no
    anchor the system is nonsingular, its solution is the levels, and a
    pinned row's level is exactly 0.

    Otherwise the same factor gives the null vectors (Meyer, SIAM Rev.
    17(3), 1975).  The right ones solve for the anchors' unit vectors: 1 on
    a class, harmonic elsewhere.  The left ones are the classes' stationary
    vectors, with disjoint supports.  ``b`` is projected onto the range and
    solved; whatever the anchors' rows then hold only adds a right null
    vector, and the solution is projected off them.
    """
    n, k = b.size, anchors.size
    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    order = np.argsort(degree, kind="stable")
    anchored = matrix.copy()
    for row in anchors.tolist():  # every row stores its diagonal
        cells = slice(anchored.indptr[row], anchored.indptr[row + 1])
        anchored.data[cells] = anchored.indices[cells] == row
    lu = splu(
        anchored[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0
    )

    def solve(rhs, trans="N"):
        out = np.empty_like(rhs)
        out[order] = lu.solve(rhs[order], trans=trans)
        return out

    fill = lu.L.nnz + lu.U.nnz
    if not k:
        return solve(b), fill
    unit = np.zeros((n, k))
    unit[anchors, np.arange(k)] = 1.0
    null = solve(unit)
    left = solve(unit - matrix.T @ unit, "T")
    x = solve(b - left @ ((left.T @ b) / np.einsum("ij,ij->j", left, left)))
    return x - null @ np.linalg.solve(null.T @ null, null.T @ x), fill


def _system_matrix(n, src, dst, wgt, w_in):
    """Rows: s(v) - sum_u w(u,v)/w_in(v) * s(u) = 1, or s(v) = 0 if pinned."""
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.ones(n)]
    if len(src):
        rows.append(dst)
        cols.append(src)
        vals.append(-wgt / w_in[dst])
    b = np.where(w_in > 0.0, 1.0, 0.0)
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return matrix, b


def hierarchy_levels(asn: Asn, weighted: bool = True) -> HierarchyLevels:
    """Forward and backward levels of a network, solved as the module
    docstring describes, and the level ranks; ``weighted=False`` counts
    every edge as 1 in the levels."""
    forward, fwd_residual = _solve_direction(asn, "forward", weighted)
    backward, bwd_residual = _solve_direction(asn, "backward", weighted)
    n = asn.node_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), -asn.out_weight(), forward))] = np.arange(1, n + 1)
    return HierarchyLevels(
        network=asn,
        forward=forward,
        backward=backward,
        residual=max(fwd_residual, bwd_residual),
        weighted=weighted,
        rank=rank,
    )


def _check_aligned(asn: Asn, levels: HierarchyLevels) -> None:
    """A ``ValueError`` unless ``levels`` are those of ``asn``: they hold one
    level per node, and were solved on ``asn`` or on a network with its
    nodes and weighted edges."""
    size = levels.forward.size
    if size != asn.node_count:
        raise ValueError(f"levels hold {size} nodes, the network has {asn.node_count}")
    solved = levels.network
    if solved is not asn and not (solved.keys == asn.keys and all(
            np.array_equal(getattr(solved, name), getattr(asn, name))
            for name in ("src", "dst", "weight"))):
        raise ValueError(f"levels are of another network of {size} nodes")


def hierarchy_stats(asn: Asn, levels: HierarchyLevels) -> HierarchyStats:
    """Democracy coefficient and hierarchical incoherence of a network.

    The forward levels are used, and the edge differences are averaged with
    the edge weights when ``levels.weighted``, else with weight 1 each.
    Statistics are invariant to a uniform shift of the levels.  Levels of
    another network, or a network with no edges, are a ``ValueError``.
    """
    _check_aligned(asn, levels)
    if not asn.edge_count:
        raise ValueError("hierarchy statistics are undefined on an edgeless network")
    fwd = levels.forward
    h = fwd[asn.dst] - fwd[asn.src]
    _, _, w = _edge_arrays(asn, "forward", levels.weighted)
    total = w.sum()
    mean = float((w * h).sum() / total)
    incoherence = float((w * (h - mean) ** 2).sum() / total)
    return HierarchyStats(democracy=1.0 - mean, incoherence=incoherence)


def level_csv(
    asn: Asn, levels: HierarchyLevels, metadata: Mapping[str, object] | None = None
) -> str:
    """Per-node level table as deterministic CSV.

    Columns: ``role,lemma,forward_level,backward_level,frequency,in_weight,
    out_weight``; rows sorted by (role, lemma).  The forward level axis
    points downward from the heads, so plots typically invert it; the
    metadata comment carries ``axis=inverted`` to record that convention.
    Levels of another network, or a metadata key or value holding a line
    break, are a ``ValueError``.
    """
    _check_aligned(asn, levels)
    meta = {"axis": "inverted", "levels": "min0"}
    if metadata:
        meta.update(metadata)
    return csv_table(
        "role,lemma,forward_level,backward_level,frequency,in_weight,out_weight",
        [
            asn._role_codes,
            [k.lemma for k in asn.keys],
            levels.forward.tolist(),
            levels.backward.tolist(),
            asn.frequency.tolist(),
            asn.in_weight().tolist(),
            asn.out_weight().tolist(),
        ],
        meta,
    )
