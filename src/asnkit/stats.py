"""Classical topology statistics for aggregated syntactic networks.

Path-based quantities (clustering, average path length, diameter) follow the
usual small-world conventions: they are computed on the undirected simple
projection of the network (direction, weights, parallel arcs, and self-loops
discarded), with path metrics restricted to the largest connected component.
Degree sequences, by contrast, describe the directed simple graph.

The projection is one symmetric 0/1 CSR matrix ``A`` over the nodes in
``asn.keys`` order, and everything else is ``scipy.sparse.csgraph``
and sparse algebra: components come from ``connected_components``, the
distances inside the largest component from breadth-first
``shortest_path`` runs over fixed blocks of source rows (so memory stays
bounded on large networks), and each node's triangle count from the row
sums of ``A * (A @ A)``.  Distances, path-length sums and triangle counts
are integers, and the per-node clustering ratios are summed exactly
(``math.fsum``), so a summary depends on the network alone: not on the
order of the sentences it was aggregated from, nor on the Python version.
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

#: Source rows per ``shortest_path`` call; a block holds this many rows of
#: float64 distances over the largest component.
_DISTANCE_ROWS = 256


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


def _clustering(adjacency: sparse.csr_matrix) -> float:
    """Mean local clustering, every node counted (zero below degree 2).

    ``t`` is twice the node's triangle count.  The per-node ratios are
    summed exactly (``math.fsum``), so the mean is the same for any node
    order and on every Python version.
    """
    degrees = np.diff(adjacency.indptr).tolist()
    twice_triangles = np.asarray(
        adjacency.multiply(adjacency @ adjacency).sum(axis=1)
    ).ravel().tolist()
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
    """Sum of all pairwise hop distances and the largest one."""
    m = component.shape[0]
    total = 0
    diameter = 0
    for start in range(0, m, _DISTANCE_ROWS):
        block = csgraph.shortest_path(
            component,
            unweighted=True,
            directed=False,
            indices=np.arange(start, min(start + _DISTANCE_ROWS, m)),
        ).astype(np.int64)
        total += int(block.sum())
        diameter = max(diameter, int(block.max()))
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
