"""Classical topology statistics for aggregated syntactic networks.

Path-based quantities (clustering, average path length, diameter) follow the
usual small-world conventions: they are computed on the undirected simple
projection of the network (direction, weights, parallel arcs, and self-loops
discarded), with path metrics restricted to the largest connected component.
Degree sequences, by contrast, describe the directed simple graph.

The projection is one symmetric 0/1 CSR matrix ``A`` over the nodes in
``asn.keys`` order.  Components come from ``scipy.sparse.csgraph``'s
``connected_components``.  The distances inside the largest component come
from a bit-parallel breadth-first search that walks 512 sources at once, one
bit per source in each node's row of ``uint64`` words (Then et al., "The More
the Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014); each
level's newly reached bits are counted with ``np.bitwise_count``.
A node's triangles are the edges among its neighbours, each edge oriented from
lower to higher (degree, index) rank and so counted once; no node then has
more than sqrt(2 |E|) out-neighbours (Chiba & Nishizeki, "Arboricity and
subgraph listing algorithms", SIAM J. Comput. 14(1), 1985).  Distances,
path-length sums and triangle counts are integers, and the per-node
clustering ratios are summed exactly (``math.fsum``), so a summary depends on
the network alone: not on the order of the sentences it was aggregated from,
nor on the Python version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .network import Asn

__all__ = [
    "NetworkSummary",
    "summarize",
    "degree_sequences",
]

#: Sources per breadth-first batch, packed as up to 8 ``uint64`` words per
#: node.
_BATCH = 512


@dataclass(frozen=True)
class NetworkSummary:
    """Topology summary of one network.

    ``edge_count`` counts the edges of the undirected simple projection, so
    ``average_degree == 2 * edge_count / node_count`` holds exactly;
    ``average_path_length`` and ``diameter`` describe the largest connected
    component of that projection.
    """

    node_count: int
    edge_count: int
    average_degree: float
    clustering: float
    average_path_length: float
    diameter: int
    component_count: int
    lcc_fraction: float


def _projection(asn: Asn) -> sparse.csr_matrix:
    """Symmetric 0/1 adjacency of the undirected simple projection."""
    arcs = asn.src != asn.dst
    src, dst = asn.src[arcs], asn.dst[arcs]
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    n = asn.node_count
    # The constructor sums duplicate entries, so a 2-cycle shows up as a 2.
    adjacency = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n)
    )
    adjacency.data[:] = 1
    return adjacency


def _triangles(adjacency: sparse.csr_matrix) -> np.ndarray:
    """Each node's triangle count.

    Orienting every edge from lower to higher (degree, index) rank gives the
    upper matrix ``U``, with each edge once.  Entry (v, w) of ``A @ U``
    counts the arcs ``u -> w`` with ``u`` a neighbour of ``v``, so the row
    sums of ``A * (A @ U)`` count the edges among each node's neighbours.
    Every node has at most sqrt(2 |E|) out-neighbours in ``U``, which bounds
    the product by that many times 2 |E|, where ``A @ A`` grows with the
    square of the largest degree.
    """
    n = adjacency.shape[0]
    degrees = np.diff(adjacency.indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(n)
    upward = np.repeat(rank, degrees) < rank[adjacency.indices]
    kept = np.concatenate([[0], np.cumsum(upward)])
    upper = sparse.csr_matrix(
        (np.ones(kept[-1], dtype=np.int64), adjacency.indices[upward],
         kept[adjacency.indptr]),
        shape=(n, n),
    )
    return np.asarray(adjacency.multiply(adjacency @ upper).sum(axis=1)).ravel()


def _clustering(adjacency: sparse.csr_matrix) -> float:
    """Mean local clustering, every node counted (zero below degree 2).

    ``t`` is twice the node's triangle count.  The per-node ratios are
    summed exactly (``math.fsum``), so the mean is the same for any node
    order and on every Python version.
    """
    degrees = np.diff(adjacency.indptr).tolist()
    twice_triangles = (2 * _triangles(adjacency)).tolist()
    local = [
        0 if t == 0 else t / (d * (d - 1))
        for d, t in zip(degrees, twice_triangles)
    ]
    return math.fsum(local) / len(local)


def _largest_component(adjacency: sparse.csr_matrix) -> tuple[int, np.ndarray]:
    """Component count and the node indices of the largest component.

    Size ties go to the component holding the smallest (role, lemma) key,
    which is the smallest node index; components are disjoint, so that
    choice is deterministic.
    """
    count, labels = csgraph.connected_components(adjacency, directed=False)
    sizes = np.bincount(labels)
    best = labels[np.argmax(sizes[labels] == sizes.max())]
    return int(count), np.flatnonzero(labels == best)


def _path_lengths(component: sparse.csr_matrix) -> tuple[int, int]:
    """Sum of all pairwise hop distances and the largest one.

    Breadth-first search from up to ``_BATCH`` sources at once: bit ``k`` of
    a node's row is set once the batch's ``k``-th source reaches it, and one
    level ORs the frontier rows of each node's neighbours.  The nodes a
    source reaches first at level ``l`` lie ``l`` hops from it, so each
    level adds ``l`` times the frontier's set bits (``np.bitwise_count``).
    """
    m = component.shape[0]
    indices = component.indices
    # ``reduceat`` reads an empty row as its next entry, so every row must
    # hold a neighbour.  A connected component of two or more nodes has no
    # isolated node, so none of its CSR rows is empty.
    starts = component.indptr[:-1]
    total = 0
    diameter = 0
    for first in range(0, m, _BATCH):
        sources = np.arange(first, min(first + _BATCH, m))
        bits = sources - first
        seen = np.zeros((m, (bits.size + 63) // 64), dtype=np.uint64)
        seen[sources, bits // 64] = np.uint64(1) << (bits % 64).astype(np.uint64)
        frontier = seen
        level = 0
        while True:
            level += 1
            reached = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier = reached & ~seen
            count = int(np.bitwise_count(frontier).sum())
            if count == 0:
                break
            total += level * count
            diameter = max(diameter, level)
            seen |= frontier
    return total, diameter


def summarize(asn: Asn) -> NetworkSummary:
    """Compute the topology summary of a network.

    Raises
    ------
    ValueError
        On a network with no nodes.
    """
    if asn.node_count == 0:
        raise ValueError("cannot summarize a network with no nodes")
    adjacency = _projection(asn)
    n = asn.node_count
    e = adjacency.nnz // 2
    component_count, lcc = _largest_component(adjacency)
    m = lcc.size
    if m <= 1:
        average_path_length = 0.0
        diameter = 0
    else:
        total, diameter = _path_lengths(adjacency[lcc][:, lcc])
        average_path_length = total / (m * (m - 1))
    return NetworkSummary(
        node_count=n,
        edge_count=e,
        average_degree=2.0 * e / n,
        clustering=_clustering(adjacency),
        average_path_length=average_path_length,
        diameter=diameter,
        component_count=component_count,
        lcc_fraction=m / n,
    )


def degree_sequences(asn: Asn) -> dict[str, list[int]]:
    """In-, out-, and total-degree multisets of the directed simple graph.

    Self-loops contribute one unit to both the in- and out-degree of their
    node.  Each multiset is returned sorted ascending; the in and out lists
    both sum to the number of directed edges.
    """
    in_deg = np.bincount(asn.dst, minlength=asn.node_count)
    out_deg = np.bincount(asn.src, minlength=asn.node_count)
    return {
        "in": np.sort(in_deg).tolist(),
        "out": np.sort(out_deg).tolist(),
        "total": np.sort(in_deg + out_deg).tolist(),
    }
