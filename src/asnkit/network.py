"""Aggregated syntactic networks: merge dependency trees into word networks.

Nodes are (lemma, role) pairs, so the same lemma in two grammatical
functions yields two nodes.  Every head -> dependent relation of every tree
contributes one unit of weight to the corresponding directed edge, hence the
sum of all edge weights equals the number of non-root tokens aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping
from xml.sax.saxutils import escape, quoteattr

from .corpus import DependencyTree, GrammaticalRole

__all__ = [
    "NodeKey",
    "EdgeData",
    "Asn",
    "aggregate",
    "heads",
    "edge_csv",
    "to_dot",
    "to_graphml",
]


@dataclass(frozen=True, order=False)
class NodeKey:
    """Identity of a network node: a lemma in one grammatical role."""

    lemma: str
    role: GrammaticalRole | None

    @property
    def role_code(self) -> str:
        return self.role.code if self.role is not None else "_"

    def display(self) -> str:
        """Human-readable form, role code first: e.g. ``AX werden``."""
        return f"{self.role_code} {self.lemma}"

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.role_code, self.lemma)


@dataclass
class EdgeData:
    """Aggregated payload of one directed edge."""

    weight: int = 0
    rules: set[str] = field(default_factory=set)


@dataclass
class Asn:
    """A weighted directed aggregated syntactic network for one century.

    ``frequency`` doubles as the node registry: nodes with no incident edges
    (single-token sentences) still appear there.  ``century`` is ``None``
    only for networks aggregated from no trees.
    """

    century: int | None
    frequency: dict[NodeKey, int] = field(default_factory=dict)
    edges: dict[tuple[NodeKey, NodeKey], EdgeData] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.frequency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def nodes(self) -> list[NodeKey]:
        """All nodes in deterministic (role, lemma) order."""
        return sorted(self.frequency, key=lambda k: k.sort_key)

    def sorted_edges(self) -> list[tuple[NodeKey, NodeKey]]:
        return sorted(self.edges, key=lambda e: (e[0].sort_key, e[1].sort_key))

    def in_weight(self) -> dict[NodeKey, int]:
        """Total incoming edge weight per node (self-loops included)."""
        w = {k: 0 for k in self.frequency}
        for (_, v), data in self.edges.items():
            w[v] += data.weight
        return w

    def out_weight(self) -> dict[NodeKey, int]:
        """Total outgoing edge weight per node (self-loops included)."""
        w = {k: 0 for k in self.frequency}
        for (u, _), data in self.edges.items():
            w[u] += data.weight
        return w

    def total_weight(self) -> int:
        return sum(d.weight for d in self.edges.values())


def _node_key(token) -> NodeKey:
    return NodeKey(lemma=token.lemma, role=token.role)


def aggregate(
    trees: Iterable[DependencyTree], century: int | None = None
) -> Asn:
    """Merge validated trees of one century into a single network.

    The result does not depend on tree order.  Node frequency counts token
    occurrences; each head -> dependent pair adds one unit of edge weight and
    records the dependent's rule tag.

    Raises
    ------
    ValueError
        If the trees span more than one century, or disagree with an
        explicitly passed ``century``.
    """
    asn = Asn(century=century)
    for tree in trees:
        if asn.century is None:
            asn.century = tree.century
        elif tree.century != asn.century:
            raise ValueError(
                f"cannot aggregate across centuries: {tree.sentence_id!r} "
                f"has {tree.century}, expected {asn.century}"
            )
        by_index = {t.index: t for t in tree.tokens}
        for token in tree.tokens:
            key = _node_key(token)
            asn.frequency[key] = asn.frequency.get(key, 0) + 1
        for token in tree.tokens:
            if token.head == 0:
                continue
            edge = (_node_key(by_index[token.head]), _node_key(token))
            data = asn.edges.get(edge)
            if data is None:
                data = asn.edges[edge] = EdgeData()
            data.weight += 1
            data.rules.add(token.rule)
    return asn


def heads(asn: Asn) -> list[NodeKey]:
    """Nodes with no in-neighbours, the top of the syntactic hierarchy.

    Sorted by total outgoing weight (descending), ties broken by
    (role, lemma).  A node whose only incoming edge is a self-loop has an
    in-neighbour (itself) and is therefore not a head.
    """
    in_w = asn.in_weight()
    out_w = asn.out_weight()
    result = [k for k in asn.frequency if in_w[k] == 0]
    result.sort(key=lambda k: (-out_w[k], k.sort_key))
    return result


def _metadata_line(
    metadata: Mapping[str, object] | None,
    prefix: str,
    suffix: str = "",
    quote: Callable[[str], str] = str,
) -> str:
    """``key=value`` pairs in key order as one comment line ("" if none)."""
    if not metadata:
        return ""
    body = " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    return f"{prefix}{quote(body)}{suffix}\n"


def _csv_quote(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def edge_csv(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic CSV edge list.

    Columns: ``source_role,source_lemma,target_role,target_lemma,weight``;
    rows sorted by (source, target) node sort keys.  An optional metadata
    mapping is recorded in a leading ``#`` comment line.
    """
    out = [_metadata_line(metadata, "# ")]
    out.append("source_role,source_lemma,target_role,target_lemma,weight\n")
    for u, v in asn.sorted_edges():
        weight = asn.edges[(u, v)].weight
        out.append(
            ",".join(
                (
                    _csv_quote(u.role_code),
                    _csv_quote(u.lemma),
                    _csv_quote(v.role_code),
                    _csv_quote(v.lemma),
                    str(weight),
                )
            )
            + "\n"
        )
    return "".join(out)


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic Graphviz DOT rendering with weights and frequencies."""
    out = [_metadata_line(metadata, "// ")]
    out.append("digraph asn {\n")
    for key in asn.nodes():
        out.append(
            f"  {_dot_quote(key.display())} "
            f"[frequency={asn.frequency[key]}];\n"
        )
    for u, v in asn.sorted_edges():
        data = asn.edges[(u, v)]
        out.append(
            f"  {_dot_quote(u.display())} -> {_dot_quote(v.display())} "
            f"[weight={data.weight}];\n"
        )
    out.append("}\n")
    return "".join(out)


def to_graphml(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic GraphML rendering readable by standard graph tools."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    out.append(_metadata_line(metadata, "<!-- ", " -->", escape))
    out.append(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="d0" for="node" attr.name="lemma" attr.type="string"/>\n'
        '  <key id="d1" for="node" attr.name="role" attr.type="string"/>\n'
        '  <key id="d2" for="node" attr.name="frequency" attr.type="long"/>\n'
        '  <key id="d3" for="edge" attr.name="weight" attr.type="long"/>\n'
        '  <key id="d4" for="edge" attr.name="rules" attr.type="string"/>\n'
        '  <graph id="G" edgedefault="directed">\n'
    )
    for key in asn.nodes():
        node_id = quoteattr(key.display())
        out.append(f"    <node id={node_id}>\n")
        out.append(f'      <data key="d0">{escape(key.lemma)}</data>\n')
        out.append(f'      <data key="d1">{escape(key.role_code)}</data>\n')
        out.append(f'      <data key="d2">{asn.frequency[key]}</data>\n')
        out.append("    </node>\n")
    for u, v in asn.sorted_edges():
        data = asn.edges[(u, v)]
        rules = escape(",".join(sorted(data.rules)))
        out.append(
            f"    <edge source={quoteattr(u.display())} "
            f"target={quoteattr(v.display())}>\n"
        )
        out.append(f'      <data key="d3">{data.weight}</data>\n')
        out.append(f'      <data key="d4">{rules}</data>\n')
        out.append("    </edge>\n")
    out.append("  </graph>\n</graphml>\n")
    return "".join(out)
