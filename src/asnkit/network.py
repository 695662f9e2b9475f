"""Aggregated syntactic networks: merge dependency trees into word networks.

Nodes are (lemma, role) pairs, so the same lemma in two grammatical
functions yields two nodes.  Every head -> dependent relation of every tree
contributes one unit of weight to the corresponding directed edge, hence the
sum of all edge weights equals the number of non-root tokens aggregated.

An :class:`Asn` is one immutable record of arrays, and :func:`aggregate` is
its only builder.  Its invariants, which every later layer relies on:

* ``keys`` holds each node once, sorted by (role code, lemma), so a node's
  position in ``keys`` is its index everywhere else;
* ``frequency`` is aligned with ``keys``;
* ``src``, ``dst``, ``weight`` and ``rules`` describe each edge once, sorted
  by (src, dst), which is (source, target) key order;
* bit ``i`` of an edge's ``rules`` mask is set when some token on that edge
  carried the phrase rule ``PHRASE_RULES[i]``.

The record holds nothing of the order of the trees it was built from, so
the same trees in any order give an equal network.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .corpus import (
    _NOT_XML,
    _NOT_XML_CHAR,
    _ROLE_CODES,
    _ROLES,
    PHRASE_RULES,
    GrammaticalRole,
    _TreeColumns,
)

logger = logging.getLogger(__name__)

__all__ = [
    "NodeKey",
    "Asn",
    "aggregate",
    "csv_table",
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


_ARRAYS = ("frequency", "src", "dst", "weight", "rules")


@dataclass(frozen=True, eq=False)
class Asn:
    """A weighted directed aggregated syntactic network for one century.

    See the module docstring for the invariants of the arrays.  Nodes with
    no incident edges (single-token sentences) are still in ``keys``.
    ``century`` is ``None`` only for networks aggregated from no trees.
    """

    century: int | None
    keys: tuple[NodeKey, ...]
    frequency: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    rules: np.ndarray

    def __post_init__(self) -> None:
        for name in _ARRAYS:
            array = np.array(
                getattr(self, name), dtype=np.uint8 if name == "rules" else np.int64
            )
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        n, m = len(self.keys), self.src.size
        if self.frequency.size != n:
            raise ValueError("frequency must align with keys")
        if not self.dst.size == self.weight.size == self.rules.size == m:
            raise ValueError("src, dst, weight and rules must have equal lengths")
        packed = self.src * n + self.dst
        if m and (
            min(self.src.min(), self.dst.min()) < 0
            or max(self.src.max(), self.dst.max()) >= n
            or np.any(packed[1:] <= packed[:-1])
        ):
            raise ValueError("edges must be unique node pairs sorted by (src, dst)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Asn):
            return NotImplemented
        return (
            self.century == other.century
            and self.keys == other.keys
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _ARRAYS
            )
        )

    @property
    def node_count(self) -> int:
        return len(self.keys)

    @property
    def edge_count(self) -> int:
        return self.src.size

    @cached_property
    def index(self) -> dict[NodeKey, int]:
        """Key -> node index, built on first use."""
        return {key: i for i, key in enumerate(self.keys)}

    @cached_property
    def _role_codes(self) -> list[str]:
        """Each node's role code, aligned with ``keys``, for the writers."""
        return [k.role_code for k in self.keys]

    @cached_property
    def _labels(self) -> list[str]:
        """Each node's :meth:`NodeKey.display` text, aligned with ``keys``."""
        return [k.display() for k in self.keys]

    def in_weight(self) -> np.ndarray:
        """Total incoming edge weight per node (self-loops included)."""
        return self._weight_sums(self.dst)

    def out_weight(self) -> np.ndarray:
        """Total outgoing edge weight per node (self-loops included)."""
        return self._weight_sums(self.src)

    def _weight_sums(self, ends: np.ndarray) -> np.ndarray:
        # Float sums of integer weights are exact below 2**53.
        sums = np.bincount(ends, weights=self.weight, minlength=self.node_count)
        return sums.astype(np.int64)

    def total_weight(self) -> int:
        return int(self.weight.sum())


#: Bit of each phrase rule in an edge's ``rules`` mask.
_RULE_BITS = {rule: 1 << i for i, rule in enumerate(PHRASE_RULES)}


def aggregate(trees: _TreeColumns) -> Asn:
    """Merge the validated trees of one century into a single network.

    ``trees`` are the token columns of a :class:`~asnkit.corpus.CorpusSlice`
    (its ``trees``), which holds one century; the network takes that
    century, or ``None`` when there are no trees.  The result does not
    depend on tree order.  Node frequency counts token occurrences; each
    head -> dependent pair adds one unit of edge weight and records the
    dependent's rule tag.
    """
    century = trees.century[0] if len(trees) else None
    # A node is a (role, lemma) pair; its code packs the two string ids.
    width = len(trees.strings)
    codes, token_code = np.unique(
        trees.role.astype(np.int64) * width + trees.lemma, return_inverse=True
    )
    # Python's sort, not numpy's: numpy "U" arrays drop trailing NULs.
    distinct = [
        (_ROLE_CODES[c // width], trees.strings[c % width]) for c in codes.tolist()
    ]
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    n = len(order)
    rank = np.empty(n, dtype=np.int64)  # code position -> node index
    rank[order] = np.arange(n)
    node = rank[token_code]
    dependent, head = trees.links()
    pairs, edge_of, weight = np.unique(
        node[head] * n + node[dependent], return_inverse=True, return_counts=True
    )
    rules = np.zeros(pairs.size, dtype=np.uint8)
    np.bitwise_or.at(rules, edge_of, (1 << trees.rule[dependent]).astype(np.uint8))
    src, dst = np.divmod(pairs, max(n, 1))
    asn = Asn(
        century=century,
        keys=tuple(NodeKey(lemma, _ROLES[code])
                   for code, lemma in map(distinct.__getitem__, order)),
        frequency=np.bincount(node, minlength=n),
        src=src,
        dst=dst,
        weight=weight,
        rules=rules,
    )
    logger.debug(
        "century %s: %d trees, %d nodes, %d edges, total weight %d",
        century, len(trees), asn.node_count, asn.edge_count, asn.total_weight(),
    )
    return asn


#: Finds a line break, which would end a one-line comment early.
_LINE_BREAK = re.compile(r"[\r\n]").search


def _metadata_line(
    metadata: Mapping[str, object] | None,
    prefix: str,
    suffix: str = "",
    quote: Callable[[str], str] = str,
    refuse: Callable[[str], re.Match | None] = _LINE_BREAK,
) -> str:
    """``key=value`` pairs in key order as one comment line ("" if none).

    A pair in which ``refuse`` finds a match is a ``ValueError`` naming its
    key, since it would break the comment and so the file it heads.
    """
    if not metadata:
        return ""
    pairs = []
    for k in sorted(metadata):
        pair = f"{k}={metadata[k]}"
        found = refuse(pair)
        if found:
            raise ValueError(
                f"metadata {k!r} cannot be written in a comment line: "
                f"{pair!r} holds {found.group()!r}"
            )
        pairs.append(pair)
    return f"{prefix}{quote(' '.join(pairs))}{suffix}\n"


#: Finds a character that forces a CSV cell into double quotes.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_quote(value: str) -> str:
    if _NEEDS_QUOTES(value):
        return '"' + value.replace('"', '""') + '"'
    return value


#: The one CSV cell rule, by the exact type of a value: a string is quoted
#: as needed, a float keeps every bit in its ``repr``, ``None`` is an empty
#: cell, a bool is 0 or 1 and an int is written in decimal.
_CSV_CELL: dict[type, Callable[[object], str]] = {
    str: _csv_quote,
    float: repr,
    type(None): lambda value: "",
    bool: lambda value: "1" if value else "0",
    int: str,
}


class _At(NamedTuple):
    """A CSV column holding the cells of ``values`` taken at positions ``at``."""

    values: Sequence
    at: Sequence[int]


def csv_table(
    header: str,
    columns: Sequence[Sequence | _At],
    metadata: Mapping[str, object] | None = None,
) -> str:
    """The one writer of CSV tables: the metadata comment line (a line break
    in it is a ``ValueError``), ``header``, then the rows.

    ``columns`` lists the table left to right, one value per row, as Python
    scalars (``str``, ``float``, ``int``, ``bool`` or ``None``).  The table
    is formatted by column: the values of an :class:`_At` column are
    formatted once, however many rows or columns gather them.
    """
    formatted: dict[int, list[str]] = {}  # id(values) -> cells
    cells = []
    for column in columns:
        values, at = column if isinstance(column, _At) else (column, None)
        if id(values) not in formatted:
            formatted[id(values)] = [_CSV_CELL[type(v)](v) for v in values]
        found = formatted[id(values)]
        cells.append(found if at is None else [found[i] for i in at])
    rows = map(",".join, zip(*cells))
    return _metadata_line(metadata, "# ") + "\n".join([header, *rows, ""])


def _edge_columns(asn: Asn):
    """``(src, dst, weight)`` as Python lists, for row formatting."""
    return asn.src.tolist(), asn.dst.tolist(), asn.weight.tolist()


def edge_csv(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic CSV edge list.

    Columns: ``source_role,source_lemma,target_role,target_lemma,weight``;
    rows sorted by (source, target) node sort keys.  An optional metadata
    mapping is recorded in a leading ``#`` comment line; a key or value
    holding a line break is a ``ValueError``.
    """
    roles = asn._role_codes
    lemmas = [k.lemma for k in asn.keys]
    src, dst, weight = _edge_columns(asn)
    return csv_table(
        "source_role,source_lemma,target_role,target_lemma,weight",
        [_At(roles, src), _At(lemmas, src), _At(roles, dst), _At(lemmas, dst), weight],
        metadata,
    )


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic Graphviz DOT rendering with weights and frequencies.

    An optional metadata mapping is recorded in a leading ``//`` comment
    line; a key or value holding a line break is a ``ValueError``.
    """
    names = [_dot_quote(label) for label in asn._labels]
    out = [_metadata_line(metadata, "// ")]
    out.append("digraph asn {\n")
    out += [
        f"  {name} [frequency={f}];\n"
        for name, f in zip(names, asn.frequency.tolist())
    ]
    out += [
        f"  {names[u]} -> {names[v]} [weight={w}];\n"
        for u, v, w in zip(*_edge_columns(asn))
    ]
    out.append("}\n")
    return "".join(out)


#: Finds what a one-line XML comment cannot hold: a line break, ``--`` or a
#: character that XML 1.0 cannot carry.
_NOT_IN_XML_COMMENT = re.compile(rf"[\r\n]|--|{_NOT_XML_CHAR}").search


#: Escaped GraphML text of every rules mask: the set rules, sorted, comma-joined.
_RULE_TEXT = [
    escape(",".join(sorted(r for r, bit in _RULE_BITS.items() if mask & bit)))
    for mask in range(1 << len(PHRASE_RULES))
]


def to_graphml(asn: Asn, metadata: Mapping[str, object] | None = None) -> str:
    """Deterministic GraphML rendering readable by standard graph tools.

    Raises
    ------
    ValueError
        Naming the first node whose lemma holds a character that XML 1.0
        cannot carry (a control character other than tab, newline and
        carriage return, a lone surrogate, U+FFFE or U+FFFF), or the first
        metadata key whose ``key=value`` text holds such a character, a
        line break or ``--``, which would end the comment that records it.
    """
    # As character data; a raw ``\r`` would read back as a line end.
    lemmas = [escape(k.lemma).replace("\r", "&#13;") for k in asn.keys]
    if _NOT_XML("".join(lemmas)):
        key = next(k for k in asn.keys if _NOT_XML(k.lemma))
        raise ValueError(
            f"node {key.display()!r} cannot be written to GraphML: its lemma "
            f"holds {_NOT_XML(key.lemma).group()!r}, which XML 1.0 cannot carry"
        )
    ids = [quoteattr(label) for label in asn._labels]
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    out.append(_metadata_line(metadata, "<!-- ", " -->", escape, _NOT_IN_XML_COMMENT))
    out.append(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="d0" for="node" attr.name="lemma" attr.type="string"/>\n'
        '  <key id="d1" for="node" attr.name="role" attr.type="string"/>\n'
        '  <key id="d2" for="node" attr.name="frequency" attr.type="long"/>\n'
        '  <key id="d3" for="edge" attr.name="weight" attr.type="long"/>\n'
        '  <key id="d4" for="edge" attr.name="rules" attr.type="string"/>\n'
        '  <graph id="G" edgedefault="directed">\n'
    )
    out += [
        f"    <node id={node_id}>\n"
        f'      <data key="d0">{lemma}</data>\n'
        f'      <data key="d1">{escape(code)}</data>\n'
        f'      <data key="d2">{f}</data>\n'
        "    </node>\n"
        for node_id, lemma, code, f in zip(
            ids, lemmas, asn._role_codes, asn.frequency.tolist()
        )
    ]
    out += [
        f"    <edge source={ids[u]} target={ids[v]}>\n"
        f'      <data key="d3">{w}</data>\n'
        f'      <data key="d4">{_RULE_TEXT[r]}</data>\n'
        "    </edge>\n"
        for u, v, w, r in zip(*_edge_columns(asn), asn.rules.tolist())
    ]
    out.append("  </graph>\n</graphml>\n")
    return "".join(out)
