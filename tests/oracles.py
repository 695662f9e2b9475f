"""Independent reference implementations used to pin expected test values.

Everything here is written the slow, obvious way — explicit loops, dense
matrices, direct summation, a different optimizer — so the fast library
code is checked against a genuinely separate route to the same numbers.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Sequence
from xml.sax.saxutils import escape, quoteattr

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy import optimize, sparse, special
from scipy.sparse import csgraph
from scipy.sparse.linalg import lsqr, splu

from asnkit import (
    MISSING_LEMMAS,
    PHRASE_RULES,
    Asn,
    CorpusFormatError,
    CorpusIssue,
    CorpusSlice,
    DegenerateDataError,
    GrammaticalRole,
    MissingPolicy,
    NodeKey,
    TreeValidationError,
    TreeViolation,
    fit_power_law,
)
from asnkit.corpus import _parse
from asnkit.powerlaw import (
    _MAX_TABLE,
    _ZETA_HORIZON,
    ALPHA_HI,
    ALPHA_LO,
    ALPHA_TOL,
    _invert_beyond,
    _zeta_sums,
)

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def nkey(lemma: str, role: GrammaticalRole | None = GrammaticalRole.NOUN) -> NodeKey:
    return NodeKey(lemma=lemma, role=role)


def _record(century, frequency: dict, edges: dict) -> Asn:
    """The array record of a node -> frequency and edge -> (weight, rules)
    dict pair."""
    keys = sorted(frequency, key=lambda k: k.sort_key)
    index = {k: i for i, k in enumerate(keys)}
    pairs = sorted(edges, key=lambda e: (index[e[0]], index[e[1]]))
    return Asn(
        century=century,
        keys=tuple(keys),
        frequency=[frequency[k] for k in keys],
        src=[index[u] for u, _ in pairs],
        dst=[index[v] for _, v in pairs],
        weight=[edges[e][0] for e in pairs],
        rules=[
            sum(1 << i for i, r in enumerate(PHRASE_RULES) if r in edges[e][1])
            for e in pairs
        ],
    )


def make_asn(edges, isolated=(), century=None) -> Asn:
    """Build a network directly from (src_lemma, dst_lemma, weight) triples.

    All nodes get the noun role; ``isolated`` adds edgeless lemmas.  Node
    frequencies are irrelevant to topology-level code, so every node gets
    frequency 1.  Edges carry no rules.
    """
    frequency: dict[NodeKey, int] = {}
    merged: dict[tuple[NodeKey, NodeKey], list] = {}
    for lemma in isolated:
        frequency.setdefault(nkey(lemma), 1)
    for src, dst, weight in edges:
        u, v = nkey(src), nkey(dst)
        frequency.setdefault(u, 1)
        frequency.setdefault(v, 1)
        merged.setdefault((u, v), [0, set()])[0] += weight
    return _record(century, frequency, merged)


def frequency_map(asn: Asn) -> dict[NodeKey, int]:
    """Node -> token frequency."""
    return {k: int(f) for k, f in zip(asn.keys, asn.frequency)}


def edge_map(asn: Asn) -> dict[tuple[NodeKey, NodeKey], tuple[int, set]]:
    """(source, target) -> (weight, set of rule names), one entry per edge."""
    return {
        (asn.keys[int(u)], asn.keys[int(v)]): (
            int(w),
            {rule for i, rule in enumerate(PHRASE_RULES) if int(mask) >> i & 1},
        )
        for u, v, w, mask in zip(asn.src, asn.dst, asn.weight, asn.rules)
    }


def reverse(asn: Asn) -> Asn:
    """The same network with every edge direction flipped."""
    edges = {(v, u): data for (u, v), data in edge_map(asn).items()}
    return _record(asn.century, frequency_map(asn), edges)


def random_asn(rng: np.random.Generator, n: int, p: float = 0.35,
               max_weight: int = 5) -> Asn:
    """Random weighted digraph on lemmas n0..n{n-1}; cycles and 2-cycles allowed."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                edges.append((f"n{i}", f"n{j}", int(rng.integers(1, max_weight + 1))))
    return make_asn(edges, isolated=[f"n{i}" for i in range(n)])


def parse_corpus(text: str | bytes, provenance: str = "<input>") -> list[CorpusSlice]:
    """The slices of one treebank text, read as :func:`asnkit.load_corpus`
    reads a file: one per century, ascending; the first problem raises."""
    return _parse([(text, provenance)])


def treebank(rows, sent_id: str = "s", century: int = 14, **headers) -> str:
    """Treebank text of one sentence, whose token ``k`` is row ``k - 1``.

    A row is ``(lemma, role, head)`` or ``(lemma, role, head, rule)``:
    ``role`` is a :class:`GrammaticalRole`, or ``None`` (written ``_``) for
    a missing annotation, the surface repeats the lemma and the rule is
    ``_`` unless given.  The ``century``, then each of ``headers``
    (``doc_id``, ``dialect``, ``target``), then ``sent_id`` head the
    sentence; headers hold for the sentences after it in the same text
    until set again.  Join several to write a corpus.
    """
    lines = [f"# century = {century}", *(f"# {k} = {v}" for k, v in headers.items()),
             f"# sent_id = {sent_id}"]
    for index, (lemma, role, head, *rule) in enumerate(rows, start=1):
        code = "_" if role is None else role.code
        rule = rule[0] if rule else "_"
        lines.append(f"{index}\t{lemma}\t{lemma}\t{code}\t{head}\t{rule}")
    return "\n".join(lines) + "\n\n"


def nouns(heads) -> list[tuple]:
    """:func:`treebank` rows of nouns ``w1``, ``w2``, ... with these heads."""
    return [(f"w{i}", GrammaticalRole.NOUN, head) for i, head in enumerate(heads, start=1)]


def shuffled_treebank(text: str, seed: int, files: int = 1) -> list[str]:
    """The sentences of ``text`` shuffled within each document and dealt
    over ``files`` files in turn.

    ``text`` is a treebank like the demo corpus: blank-line separated
    blocks, each either a ``#`` header block naming a ``doc_id`` or a
    sentence with no ``sent_id`` of its own.  Each file repeats the header
    block of every document it holds a sentence of, and each sentence
    takes its original generated id, ``<doc_id>:<position>``, as its
    ``sent_id``, so the ids stay unique across the files.
    """
    rng = np.random.default_rng(seed)
    parts: list[list[str]] = [[] for _ in range(files)]
    documents: dict[str, list[str]] = {}
    for block in text.strip("\n").split("\n\n"):
        if block.startswith("#"):
            doc = re.search(r"^# doc_id = (.*)$", block, re.M).group(1)
            sentences = documents.setdefault(block, [])
        else:
            sentences.append(f"# sent_id = {doc}:{len(sentences) + 1}\n{block}")
    for headers, sentences in documents.items():
        order = rng.permutation(len(sentences)).tolist()
        for part, share in zip(parts, (order[i::files] for i in range(files))):
            if share:
                part += [headers, *(sentences[j] for j in share)]
    return ["\n\n".join(part) + "\n" for part in parts]


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


# Noisy treebanks.  int() accepts Unicode digits, "+1" and " 1".
_WORDS = ["a", "b", "a b", "!", "unbekannt", "a\rb", "a\u2028b", "a\x0cb"]
_ROLE_CODES = ["N", "V", "PR", "AX", "PP", "AR"]
_ODD_FIELDS = [
    ["\u0663", "+1", " 1", "0", "9", "x", ""],  # index
    ["", "\r"],  # surface
    ["", "\r", "!"],  # lemma
    ["_", "ZZ", "n", ""],  # role
    ["0", "1", "2", "9", "+1", "\u0662", "-1", "x"],  # head
    ["XP", "np", ""],  # rule
]
_HEADERS = ["# sent_id = s1", "# sent_id = s2", "# doc_id = d", "# century = 15",
            "# target = a", "## note"] * 3 + ["# century = x", "# bogus = 1", "#"]


@st.composite
def noisy_treebanks(draw) -> bytes:
    """Treebank bytes: valid sentences, some with one field or line gone bad.

    Fields may hold Unicode digits, ``+1``, ``\\r``, U+2028, sentinels,
    ``_`` roles and rules, dangling and self heads or a missing column;
    sentences repeat ``sent_id`` headers.  The file may start with a BOM,
    end its lines with CRLF or hold a byte that is not UTF-8.
    """
    lines = ["# century = 14"] if draw(st.integers(0, 4)) else []
    for _ in range(draw(st.integers(0, 3))):
        lines += draw(st.lists(st.sampled_from(_HEADERS), max_size=2))
        n = draw(st.integers(1, 4))
        for i in range(1, n + 1):
            lemma = draw(st.sampled_from(_WORDS))
            missing = lemma in MISSING_LEMMAS and draw(st.booleans())
            cols = [
                str(i),
                draw(st.sampled_from(_WORDS)),
                lemma,
                "_" if missing else draw(st.sampled_from(_ROLE_CODES)),
                str(draw(st.integers(min(i - 1, 1), i - 1))),
                draw(st.sampled_from(("_", "_") + PHRASE_RULES)),
            ]
            if draw(st.integers(0, 4)) == 0:
                k = draw(st.integers(0, 5))
                cols[k] = draw(st.sampled_from(_ODD_FIELDS[k]))
            if draw(st.integers(0, 30)) == 0:
                del cols[draw(st.integers(0, 5))]
            lines.append("\t".join(cols))
        lines.append(draw(st.sampled_from(["", "", " ", "\r"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    data = draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf"])) + text.encode()
    if data and draw(st.integers(0, 19)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


# ---------------------------------------------------------------------------
# Reference reader: the line-by-line treebank reader asnkit shipped before
# its columnar one, kept as the route the bulk reader must match.
# ---------------------------------------------------------------------------

_REF_ROLES = {role.value: role for role in GrammaticalRole}
_REF_ROLES["_"] = None
_REF_HEADER_KEYS = ("century", "doc_id", "dialect", "target", "sent_id")
_REF_INTEGER = re.compile(r"-?[0-9]+")


@dataclass
class _RefDraft:
    """One sentence as read from the file, before validation."""

    meta: dict
    sent_id: str
    first_line: int
    rows: list = field(default_factory=list)


def _ref_lines(source, provenance: str) -> list[str]:
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                provenance, exc.object.count(b"\n", 0, exc.start) + 1,
                f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})",
            ) from None
    else:
        source = source.removeprefix("\ufeff")
    return [line[:-1] if line.endswith("\r") else line for line in source.split("\n")]


def _ref_integer(text: str, name: str, provenance: str, line_no: int) -> int:
    if not _REF_INTEGER.fullmatch(text):
        raise CorpusFormatError(
            provenance, line_no, f"{name} must be an integer, got {text!r}"
        )
    return int(text)


def _ref_drafts(lines: list[str], provenance: str, auto_counter: dict[str, int]):
    """Yield raw sentences with resolved metadata; structural errors raise.

    A sentence without a ``sent_id`` takes its document's next number in
    ``auto_counter``, which counts on from file to file.
    """
    meta: dict = {"century": None, "doc_id": "", "dialect": None, "target": None}
    pending_sent_id = None
    draft = None
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("## "):
            continue
        if not line.strip():
            if draft is not None:
                yield draft
                draft = None
            continue
        if line.startswith("#"):
            if draft is not None:
                raise CorpusFormatError(provenance, line_no,
                                        "header line inside a sentence")
            body = line[1:].strip()
            if "=" not in body:
                raise CorpusFormatError(provenance, line_no,
                                        f"malformed header line {line!r}")
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _REF_HEADER_KEYS:
                allowed = ", ".join(_REF_HEADER_KEYS)
                raise CorpusFormatError(
                    provenance, line_no,
                    f"unknown header key {key!r} (allowed: {allowed})",
                )
            if key == "century":
                meta["century"] = _ref_integer(value, "century", provenance, line_no)
            elif key == "sent_id":
                pending_sent_id = value
            else:
                meta[key] = value
            continue
        if draft is None:
            if meta["century"] is None:
                raise CorpusFormatError(
                    provenance, line_no,
                    "sentence begins before any '# century = ...' header",
                )
            if pending_sent_id is None:
                doc = meta["doc_id"]
                auto_counter[doc] = auto_counter.get(doc, 0) + 1
                sent_id = f"{doc}:{auto_counter[doc]}"
            else:
                sent_id, pending_sent_id = pending_sent_id, None
            draft = _RefDraft(meta=dict(meta), sent_id=sent_id, first_line=line_no)
        cols = line.split("\t")
        if len(cols) != 6:
            raise CorpusFormatError(
                provenance, line_no,
                f"expected 6 tab-separated columns, got {len(cols)}",
            )
        idx_s, surface, lemma, role_s, head_s, rule_s = cols
        idx = _ref_integer(idx_s, "token index", provenance, line_no)
        head = _ref_integer(head_s, "head", provenance, line_no)
        if head < 0:
            raise CorpusFormatError(provenance, line_no,
                                    f"head must be >= 0, got {head}")
        if idx != len(draft.rows) + 1:
            raise CorpusFormatError(
                provenance, line_no,
                f"token index {idx} is not contiguous (expected {len(draft.rows) + 1})",
            )
        if not surface or not lemma:
            raise CorpusFormatError(provenance, line_no,
                                    "SURFACE and LEMMA must be non-empty")
        missing = lemma in MISSING_LEMMAS
        if role_s not in _REF_ROLES:
            raise CorpusFormatError(
                provenance, line_no, f"unknown grammatical role code {role_s!r}"
            )
        if role_s == "_" and not missing:
            raise CorpusFormatError(
                provenance, line_no,
                "ROLE '_' is only allowed for missing-annotation lemmas",
            )
        if rule_s != "_" and rule_s not in PHRASE_RULES:
            raise CorpusFormatError(
                provenance, line_no,
                f"RULE must be one of {', '.join(PHRASE_RULES)} or '_', got {rule_s!r}",
            )
        draft.rows.append((line_no, idx, surface, lemma, role_s, head, rule_s, missing))
    if draft is not None:
        yield draft


class RefToken(NamedTuple):
    """One token line as the reference reader keeps it; ``role`` is the
    code as written (``_`` for a missing annotation)."""

    line: int
    index: int
    surface: str
    lemma: str
    role: str
    head: int
    rule: str
    missing: bool


class RefTree(NamedTuple):
    """One sentence as the reference reader keeps it."""

    sentence_id: str
    century: int
    doc_id: str
    dialect: str | None
    target: str | None
    tokens: tuple[RefToken, ...]


class RefSlice(NamedTuple):
    century: int
    trees: list[RefTree]


#: The phrase a ``_`` RULE resolves to, by its head's role code; any other
#: head, a head without a role, and the root give ``OTHER``.
_REF_PHRASE_OF_HEAD = {
    **dict.fromkeys(["N", "PP", "PS", "DM", "RX", "RPO"], "NP"),
    **dict.fromkeys(["V", "IV", "MV", "AX", "PCPR", "PCPS"], "VP"),
    "PR": "PP",
}


def _ref_tree(draft: _RefDraft, provenance: str) -> RefTree:
    """Raw rows as an unchecked tree; self-heads are format errors."""
    rows = draft.rows
    tokens = []
    for line_no, idx, surface, lemma, role, head, rule, missing in rows:
        if head == idx:
            raise CorpusFormatError(provenance, line_no,
                                    f"token {idx} points at itself as head")
        if rule == "_":
            head_role = rows[head - 1][4] if 0 < head <= len(rows) else None
            rule = _REF_PHRASE_OF_HEAD.get(head_role, "OTHER")
        tokens.append(RefToken(line_no, idx, surface, lemma, role, head, rule, missing))
    meta = draft.meta
    return RefTree(draft.sent_id, meta["century"], meta["doc_id"], meta["dialect"],
                   meta["target"], tuple(tokens))


def reference_tree_violations(heads: Sequence[int]) -> list[TreeViolation]:
    """Check the tree constraints on the heads of tokens 1..n and report
    every violation found, by a three-colour walk over the head chains: a
    second route to asnkit's pointer-jumping kernel.

    The constraints: exactly one token has head 0; every head pointer stays
    inside the sentence; no token is its own ancestor (head pointers are
    acyclic, which together with single-headedness makes every token
    reachable from the root).
    """
    n = len(heads)
    violations: list[TreeViolation] = []

    roots = [index for index, head in enumerate(heads, start=1) if head == 0]
    if not roots:
        violations.append(
            TreeViolation("no root", None, "no token has head 0")
        )
    for extra in roots[1:]:
        violations.append(
            TreeViolation(
                "multiple roots",
                extra,
                f"head 0 already claimed by token {roots[0]}",
            )
        )

    in_range = {}
    for index, head in enumerate(heads, start=1):
        if head > n:
            violations.append(
                TreeViolation(
                    "head out of range",
                    index,
                    f"head {head} exceeds sentence length {n}",
                )
            )
        else:
            in_range[index] = head

    # Walk head chains with the classic three-color scheme; chains either
    # terminate at head 0 (or an out-of-range pointer, reported above) or
    # loop back into themselves.
    state: dict[int, int] = {}  # 0 absent, 1 on current path, 2 done
    for start in in_range:
        if state.get(start):
            continue
        path: list[int] = []
        node = start
        while node in in_range and not state.get(node):
            state[node] = 1
            path.append(node)
            node = in_range[node]
        if state.get(node) == 1:
            cycle = path[path.index(node):]
            anchor = min(cycle)
            pretty = " -> ".join(str(i) for i in cycle + [cycle[0]])
            violations.append(
                TreeViolation("head cycle", anchor, f"cycle {pretty}")
            )
        for visited in path:
            state[visited] = 2

    return violations


def reference_filter_missing(tree: RefTree, policy: MissingPolicy) -> str | None:
    """Why the given missing-annotation policy drops a tree, or ``None``
    when it keeps the tree, token by token: a second route to asnkit's
    column kernel.

    ``drop-any`` drops every tree containing a missing token.  The default
    pipeline policy ``drop-adjacent-to-target`` drops a tree only when a
    missing token is the head of, or a direct dependent of, an occurrence of
    the tree's target lemma — missing material elsewhere does not interfere
    with identifying how the target is used.  ``keep-all`` never drops.

    Raises
    ------
    ValueError
        Under ``drop-adjacent-to-target`` when the tree contains missing
        tokens but carries no target lemma, or the target lemma does not
        occur, so adjacency cannot be judged.
    """
    missing = [t for t in tree.tokens if t.missing]
    if policy is MissingPolicy.KEEP_ALL or not missing:
        return None
    if policy is MissingPolicy.DROP_ANY:
        return f"tree contains {len(missing)} missing annotation(s)"

    # drop-adjacent-to-target
    if tree.target is None:
        raise ValueError(
            f"sentence {tree.sentence_id!r}: policy "
            f"{policy.value!r} needs a target lemma to judge adjacency"
        )
    targets = [t for t in tree.tokens if t.lemma == tree.target]
    if not targets:
        raise ValueError(
            f"sentence {tree.sentence_id!r}: target lemma "
            f"{tree.target!r} does not occur, cannot judge adjacency"
        )
    for m in missing:
        for t in targets:
            if m.head == t.index or t.head == m.index:
                return (f"missing neighbor of target: token {m.index} is "
                        f"adjacent to {tree.target!r} at token {t.index}")
    return None


def reference_sentences(sources):
    """Every tree, or ``(error, issues)`` problem, of (bytes, provenance)
    sources in reading order, one line and one sentence at a time."""
    seen: dict = {}
    auto_counter: dict[str, int] = {}
    for number, (source, provenance) in enumerate(sources):
        try:
            lines = _ref_lines(source, provenance)
            for draft in _ref_drafts(lines, provenance, auto_counter):
                key = (draft.meta["doc_id"], draft.sent_id)
                if key in seen:
                    number0, provenance0, line0 = seen[key]
                    where = (f"first seen at line {line0}" if number0 == number
                             else f"also in {provenance0}")
                    yield (CorpusFormatError(
                        provenance, draft.first_line,
                        f"duplicate sentence id {draft.sent_id!r} in "
                        f"document {draft.meta['doc_id']!r} ({where})",
                    ), [CorpusIssue(provenance, draft.first_line, draft.sent_id,
                                    "duplicate sentence id", where)])
                    continue
                seen[key] = (number, provenance, draft.first_line)
                try:
                    tree = _ref_tree(draft, provenance)
                except CorpusFormatError as exc:
                    yield (exc, [CorpusIssue(provenance, exc.line, draft.sent_id,
                                             "malformed token", exc.message)])
                    continue
                violations = reference_tree_violations([t.head for t in tree.tokens])
                if violations:
                    yield (TreeValidationError(tree.sentence_id, violations), [
                        CorpusIssue(provenance, draft.first_line, draft.sent_id,
                                    v.constraint, v.message)
                        for v in violations
                    ])
                else:
                    yield tree
        except CorpusFormatError as exc:
            yield (exc, [CorpusIssue(provenance, exc.line, None, "format error",
                                     exc.message)])


def reference_parse(sources) -> list[RefSlice]:
    """Trees grouped by century; the first problem raises."""
    by_century: dict = {}
    for item in reference_sentences(sources):
        if not isinstance(item, RefTree):
            raise item[0]
        by_century.setdefault(item.century, []).append(item)
    return [RefSlice(c, by_century[c]) for c in sorted(by_century)]


def reference_audit(sources) -> list[CorpusIssue]:
    return [issue for item in reference_sentences(sources)
            if not isinstance(item, RefTree) for issue in item[1]]


def reference_filter_slice(trees: Sequence[RefTree], policy):
    """Tree by tree through :func:`reference_filter_missing`: the kept trees,
    and a ``(sentence_id, reason)`` pair for each dropped one."""
    kept, dropped = [], []
    for tree in trees:
        reason = reference_filter_missing(tree, policy)
        if reason is None:
            kept.append(tree)
        else:
            dropped.append((tree.sentence_id, reason))
    return kept, dropped


#: The code of each role index in the token columns: the 19 codes, then ``_``.
_COLUMN_ROLE_CODES = [role.value for role in GrammaticalRole] + ["_"]
def columns_of(trees) -> dict[str, list]:
    """The columns of a :class:`~asnkit.CorpusSlice`'s ``trees`` as lists of
    plain values, each sentence's token count and depth, and each token's
    fields, with strings (the target lemma read through ``target_id``),
    roles and rules spelled out."""
    strings = trees.strings
    return {
        "sentence_id": trees.sentence_id.tolist(),
        "century": trees.century.tolist(),
        "target": [None if i < 0 else strings[i] for i in trees.target_id.tolist()],
        "length": np.diff(trees.offsets).tolist(),
        "depth": trees.depth.tolist(),
        "line": trees.line.tolist(),
        "lemma": [strings[i] for i in trees.lemma.tolist()],
        "role": [_COLUMN_ROLE_CODES[r] for r in trees.role.tolist()],
        "head": trees.head.tolist(),
        "rule": [PHRASE_RULES[r] for r in trees.rule.tolist()],
        "missing": trees.missing.tolist(),
    }


def reference_columns(trees: Sequence[RefTree]) -> dict[str, list]:
    """What :func:`columns_of` gives for the slice of these trees."""
    tokens = [t for tree in trees for t in tree.tokens]
    return {
        **{name: [getattr(tree, name) for tree in trees]
           for name in ("sentence_id", "century", "target")},
        "length": [len(tree.tokens) for tree in trees],
        "depth": [depth_of_heads([t.head for t in tree.tokens]) for tree in trees],
        **{name: [getattr(t, name) for t in tokens]
           for name in ("line", "lemma", "role", "head", "rule", "missing")},
    }


#: What :func:`mutated_treebanks` can do to a valid treebank.
MUTATIONS = ("columns", "integer", "self-head", "cycle", "two roots", "duplicate id",
             "header inside", "comment inside", "crlf", "no target", "role",
             "orphan role", "rule", "empty field", "two faults")

#: Faults that each break one token-line rule, in the order the rules are
#: checked, as new values by column: INDEX not an integer, HEAD not an
#: integer, HEAD negative, INDEX not contiguous, an empty SURFACE, an
#: unknown role, ``_`` on a lemma that is no sentinel, an unknown RULE.
_FAULTS = ({0: "x"}, {4: "1x"}, {4: "-1"}, {0: "0"}, {1: ""}, {3: "XX"},
           {2: "a", 3: "_"}, {5: "np"})

_MUTATED_LEMMAS = ["a", "b", "c", "werden", "a\x0cb"]


def mutated_treebanks(rng: np.random.Generator, mutations=()) -> list[bytes]:
    """One or two treebank files of random valid trees whose sentences
    interleave centuries, with each of ``mutations`` (names from
    :data:`MUTATIONS`) applied at a random place.

    Sentences carry a target lemma, which may not occur or be a sentinel,
    and sentinel tokens next to it or elsewhere, so each missing-annotation
    policy keeps some sentences, drops some and raises on some corpora.
    Each file has its own documents, unless a duplicate id is planted, which
    also puts the first and last sentence of each file into one shared
    document.
    """
    files = []
    for number in range(int(rng.integers(1, 3))):
        sentences = []  # (header lines, token lines: a list of columns or a raw line)
        for s in range(int(rng.integers(1, 8))):
            headers = [f"# century = {int(rng.integers(14, 17))}"]
            if s == 0 or rng.random() < 0.3:
                headers.append(f"# doc_id = f{number}d{int(rng.integers(0, 2))}")
            target = None
            if rng.random() < 0.8:
                target = str(rng.choice(["werden", "werden", "a", "zzz", "!"]))
                headers.append(f"# target = {target}")
            if rng.random() < 0.3:
                headers.append(f"# sent_id = s{s}")
            tokens = []
            heads = random_tree_heads(rng, int(rng.integers(1, 7)))
            for i, head in enumerate(heads, start=1):
                lemma = str(rng.choice(_MUTATED_LEMMAS))
                role = str(rng.choice(["N", "V", "PR", "AX", "PP"]))
                if rng.random() < 0.15:
                    lemma = str(rng.choice(sorted(MISSING_LEMMAS)))
                    role = "_" if rng.random() < 0.8 else role
                elif target and rng.random() < 0.3:
                    lemma = target
                rule = str(rng.choice(["_", "_", *PHRASE_RULES]))
                tokens.append([str(i), lemma, lemma, role, str(head), rule])
            sentences.append((headers, tokens))
        newline = "\n"
        for mutation in mutations:
            headers, tokens = sentences[int(rng.integers(len(sentences)))]
            rows = [t for t in tokens if isinstance(t, list)]
            cols = rows[int(rng.integers(len(rows)))]
            if mutation == "columns":
                if rng.random() < 0.5:
                    del cols[int(rng.integers(len(cols)))]
                else:
                    cols.insert(int(rng.integers(len(cols) + 1)), "x")
            elif mutation == "integer" and len(cols) == 6:
                k = int(rng.choice([0, 4]))
                pad = ["+", " ", "0", "-", "0" * 22, "9" * 22]
                cols[k] = str(rng.choice(pad)) + cols[k]
            elif mutation == "self-head" and len(cols) == 6:
                cols[4] = cols[0]
            elif mutation == "cycle":
                # The root points at a token below it: no root, and a cycle.
                root = next((t for t in rows if t[4:5] == ["0"]), None)
                child = next((t for t in rows if root and t[4:5] == root[:1]), None)
                if child is not None:
                    root[4] = child[0]
            elif mutation == "two roots" and len(cols) == 6:
                cols[4] = "0"
            elif mutation == "duplicate id":
                for headers, _ in (sentences[0], sentences[-1]):
                    headers += ["# doc_id = shared", "# sent_id = twin"]
            elif mutation == "header inside":
                tokens.insert(int(rng.integers(1, len(tokens) + 1)), "# dialect = x")
            elif mutation == "comment inside":
                tokens.insert(int(rng.integers(len(tokens) + 1)), "## note")
            elif mutation == "crlf":
                newline = "\r\n"
            elif mutation == "no target":
                for headers, _ in sentences:
                    headers[:] = [h for h in headers if not h.startswith("# target")]
            elif mutation == "role" and len(cols) == 6:
                cols[3] = str(rng.choice(["XX", "n", "", "__"]))
            elif mutation == "orphan role" and len(cols) == 6:
                cols[2:4] = [str(rng.choice(["a", "werden"])), "_"]
            elif mutation == "rule" and len(cols) == 6:
                cols[5] = str(rng.choice(["np", "", "X", "__"]))
            elif mutation == "empty field" and len(cols) == 6:
                cols[int(rng.integers(1, 3))] = ""
            elif mutation == "two faults" and len(cols) == 6:
                # A line breaking two rules checked one after the other.
                # Faults 1 and 2, and 5 and 6, set the same column: no line
                # breaks both of those rules.
                k = int(rng.choice([0, 2, 3, 4, 6]))
                for column, value in (_FAULTS[k] | _FAULTS[k + 1]).items():
                    cols[column] = value
        lines = []
        for headers, tokens in sentences:
            lines += headers
            lines += [t if isinstance(t, str) else "\t".join(t) for t in tokens]
            lines.append(str(rng.choice(["", "", " "])))
        files.append(newline.join(lines).encode())
    return files


# ---------------------------------------------------------------------------
# Reference network: the dict-based aggregation and writers asnkit shipped
# before its array record, kept as the route the array code must match.
# ---------------------------------------------------------------------------


@dataclass
class RefEdge:
    weight: int = 0
    rules: set = field(default_factory=set)


@dataclass
class RefAsn:
    """Node -> frequency in first-seen order, (u, v) -> :class:`RefEdge`."""

    century: int | None
    frequency: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)

    def nodes(self):
        return sorted(self.frequency, key=lambda k: k.sort_key)

    def sorted_edges(self):
        return sorted(self.edges, key=lambda e: (e[0].sort_key, e[1].sort_key))

    def in_weight(self):
        w = {k: 0 for k in self.frequency}
        for (_, v), data in self.edges.items():
            w[v] += data.weight
        return w

    def out_weight(self):
        w = {k: 0 for k in self.frequency}
        for (u, _), data in self.edges.items():
            w[u] += data.weight
        return w


def reference_aggregate(trees: Sequence[RefTree]) -> RefAsn:
    """Token by token, one dict entry per node and per edge."""
    asn = RefAsn(century=None)
    for tree in trees:
        asn.century = tree.century
        by_index = {t.index: t for t in tree.tokens}
        for token in tree.tokens:
            key = NodeKey(token.lemma, _REF_ROLES[token.role])
            asn.frequency[key] = asn.frequency.get(key, 0) + 1
        for token in tree.tokens:
            if token.head == 0:
                continue
            head = by_index[token.head]
            edge = (NodeKey(head.lemma, _REF_ROLES[head.role]),
                    NodeKey(token.lemma, _REF_ROLES[token.role]))
            data = asn.edges.setdefault(edge, RefEdge())
            data.weight += 1
            data.rules.add(token.rule)
    return asn


def _ref_metadata(metadata, prefix, suffix="", quote=str):
    if not metadata:
        return ""
    body = " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    return f"{prefix}{quote(body)}{suffix}\n"


def _ref_csv_quote(value):
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _ref_dot_quote(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_edge_csv(asn: RefAsn, metadata=None) -> str:
    out = [_ref_metadata(metadata, "# ")]
    out.append("source_role,source_lemma,target_role,target_lemma,weight\n")
    for u, v in asn.sorted_edges():
        cells = (u.role_code, u.lemma, v.role_code, v.lemma)
        out.append(",".join(_ref_csv_quote(c) for c in cells)
                   + f",{asn.edges[(u, v)].weight}\n")
    return "".join(out)


def reference_to_dot(asn: RefAsn, metadata=None) -> str:
    out = [_ref_metadata(metadata, "// "), "digraph asn {\n"]
    for key in asn.nodes():
        out.append(f"  {_ref_dot_quote(key.display())} "
                   f"[frequency={asn.frequency[key]}];\n")
    for u, v in asn.sorted_edges():
        out.append(f"  {_ref_dot_quote(u.display())} -> "
                   f"{_ref_dot_quote(v.display())} "
                   f"[weight={asn.edges[(u, v)].weight}];\n")
    out.append("}\n")
    return "".join(out)


def reference_to_graphml(asn: RefAsn, metadata=None) -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n',
           _ref_metadata(metadata, "<!-- ", " -->", escape)]
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
        out.append(f"    <node id={quoteattr(key.display())}>\n")
        # A raw carriage return in character data reads back as a newline.
        lemma = escape(key.lemma).replace("\r", "&#13;")
        out.append(f'      <data key="d0">{lemma}</data>\n')
        out.append(f'      <data key="d1">{escape(key.role_code)}</data>\n')
        out.append(f'      <data key="d2">{asn.frequency[key]}</data>\n')
        out.append("    </node>\n")
    for u, v in asn.sorted_edges():
        data = asn.edges[(u, v)]
        out.append(f"    <edge source={quoteattr(u.display())} "
                   f"target={quoteattr(v.display())}>\n")
        out.append(f'      <data key="d3">{data.weight}</data>\n')
        out.append(f'      <data key="d4">{escape(",".join(sorted(data.rules)))}</data>\n')
        out.append("    </edge>\n")
    out.append("  </graph>\n</graphml>\n")
    return "".join(out)


def reference_level_csv(asn: RefAsn, forward: dict, backward: dict,
                        metadata=None) -> str:
    """``forward``/``backward``: node -> level dicts."""
    meta = {"axis": "inverted", "levels": "min0", **(metadata or {})}
    out = [_ref_metadata(meta, "# ")]
    out.append("role,lemma,forward_level,backward_level,frequency,"
               "in_weight,out_weight\n")
    in_w, out_w = asn.in_weight(), asn.out_weight()
    for key in asn.nodes():
        out.append(",".join((
            key.role_code, _ref_csv_quote(key.lemma), repr(forward[key]),
            repr(backward[key]), str(asn.frequency[key]), str(in_w[key]),
            str(out_w[key]),
        )) + "\n")
    return "".join(out)


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
    nodes = sorted(asn.keys, key=lambda k: k.sort_key)
    index = {k: i for i, k in enumerate(nodes)}
    n = len(nodes)
    win = np.zeros(n)
    triples = []
    for (u, v), (weight, _rules) in edge_map(asn).items():
        w = float(weight) if weighted else 1.0
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


def exact_levels(asn: Asn, weighted: bool = True) -> list[Fraction]:
    """Forward levels of a nonsingular level system, in exact arithmetic.

    Each non-pinned row is scaled by its in-weight, which leaves integer
    coefficients: ``w_in(v) s(v) - sum_u w(u, v) s(u) = w_in(v)``.  A pinned
    row is ``s(v) = 0``.  Gauss-Jordan elimination in ``Fraction`` solves
    the system.  Returns levels aligned with ``asn.keys``, shifted so the
    minimum is 0; a singular system is a ``ValueError``.
    """
    n = asn.node_count
    w = asn.weight.tolist() if weighted else [1] * asn.edge_count
    w_in = [0] * n
    for v, weight in zip(asn.dst.tolist(), w):
        w_in[v] += weight
    rows = [{v: Fraction(w_in[v] or 1)} for v in range(n)]
    rhs = [Fraction(total) for total in w_in]
    for u, v, weight in zip(asn.src.tolist(), asn.dst.tolist(), w):
        rows[v][u] = rows[v].get(u, 0) - weight
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r].get(col)), None)
        if pivot is None:
            raise ValueError(f"the level system is singular at column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        scale = rows[col][col]
        rows[col] = {k: c / scale for k, c in rows[col].items() if c}
        rhs[col] /= scale
        for r in range(n):
            factor = rows[r].get(col)
            if r != col and factor:
                for k, c in rows[col].items():
                    rows[r][k] = rows[r].get(k, 0) - factor * c
                rhs[r] -= factor * rhs[col]
    low = min(rhs, default=0)
    return [level - low for level in rhs]


def mmd_lu_levels(asn: Asn, weighted: bool = True, backward: bool = False):
    """Levels of a nonsingular level system by sparse LU in SuperLU's own
    minimum-degree order (``MMD_AT_PLUS_A``) on the unpermuted matrix.

    Returns an array aligned with ``asn.keys``, shifted so the minimum is 0.
    """
    n = asn.node_count
    src, dst = (asn.dst, asn.src) if backward else (asn.src, asn.dst)
    w = asn.weight.astype(float) if weighted else np.ones(asn.edge_count)
    w_in = np.bincount(dst, weights=w, minlength=n)
    matrix = sparse.identity(n, format="csc") - sparse.csc_matrix(
        (w / w_in[dst], (dst, src)), shape=(n, n))
    b = (w_in > 0).astype(float)
    lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    levels = lu.solve(b)
    return levels - levels.min()


# The sparse LSQR solve that singular level systems took before the direct
# one: the reference for the minimum-norm levels of larger systems, where a
# dense pseudoinverse costs too much.  Both functions take the level matrix
# and right-hand side of ``asnkit.hierarchy._system_matrix``.

def _lsqr_solve(matrix, rhs, iter_lim) -> np.ndarray:
    """One LSQR solve; logs its stop code and warns if it hit ``iter_lim``."""
    x, istop, itn = lsqr(
        matrix, rhs, atol=0.0, btol=0.0, conlim=0.0, iter_lim=iter_lim
    )[:3]
    logger.debug("LSQR stopped with istop=%d after %d iterations", istop, itn)
    if istop == 7:
        logger.warning(
            "LSQR reached its iteration limit (%d iterations) before converging; "
            "levels may be inaccurate",
            itn,
        )
    return x


def _lsqr_min_norm(matrix, b) -> np.ndarray:
    """Minimum-norm least-squares levels via sparse LSQR with refinement."""
    iter_lim = max(1000, 30 * matrix.shape[0])
    x = _lsqr_solve(matrix, b, iter_lim)
    # Iterative refinement drives the normal-equation residual toward zero;
    # corrections from LSQR stay orthogonal to the null space, preserving
    # the minimum-norm property.
    for _ in range(3):
        r = b - matrix @ x
        grad = matrix.T @ r
        if np.linalg.norm(grad) <= 1e-13 * max(1.0, np.linalg.norm(b)):
            break
        dx = _lsqr_solve(matrix, r, iter_lim)
        if not np.any(dx):
            break
        x = x + dx
    return x


def hierarchy_stats_oracle(asn: Asn, forward, weighted: bool = True):
    """Weighted mean/variance of edge level differences, by explicit loop.

    ``forward`` holds the levels aligned with ``asn.keys``.
    """
    forward = dict(zip(asn.keys, forward))
    diffs, weights = [], []
    for (u, v), (weight, _rules) in edge_map(asn).items():
        diffs.append(forward[v] - forward[u])
        weights.append(float(weight) if weighted else 1.0)
    total = sum(weights)
    mean = sum(d * w for d, w in zip(diffs, weights)) / total
    var = sum(w * (d - mean) ** 2 for d, w in zip(diffs, weights)) / total
    return 1.0 - mean, var


# ---------------------------------------------------------------------------
# Graph statistics
# ---------------------------------------------------------------------------


def _undirected(asn: Asn) -> dict[NodeKey, set[NodeKey]]:
    """Each node's neighbours in the undirected simple projection."""
    adjacency = {k: set() for k in sorted(asn.keys, key=lambda k: k.sort_key)}
    for u, v in edge_map(asn):
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def local_clustering(asn: Asn) -> list[float]:
    """Each node's local clustering by counting the links among its
    neighbours, in key order (zero below degree 2)."""
    adjacency = _undirected(asn)
    ratios = []
    for neighbours in adjacency.values():
        neigh = sorted(neighbours, key=lambda k: k.sort_key)
        k = len(neigh)
        links = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if neigh[b] in adjacency[neigh[a]]
        )
        ratios.append(2.0 * links / (k * (k - 1)) if k >= 2 else 0.0)
    return ratios


def reference_path_lengths(component: sparse.csr_matrix) -> tuple[int, int]:
    """Sum of all pairwise hop distances in a connected graph, and the largest.

    Breadth-first ``csgraph.shortest_path`` runs over blocks of 256 source
    rows of float64 distances, so memory stays bounded on large graphs; this
    was ``stats._path_lengths`` before the bit-parallel search replaced it.
    """
    m = component.shape[0]
    total = 0
    diameter = 0
    for start in range(0, m, 256):
        block = csgraph.shortest_path(
            component,
            unweighted=True,
            directed=False,
            indices=np.arange(start, min(start + 256, m)),
        ).astype(np.int64)
        total += int(block.sum())
        diameter = max(diameter, int(block.max()))
    return total, diameter


def reference_twice_triangles(adjacency: sparse.csr_matrix) -> np.ndarray:
    """Twice each node's triangle count: the row sums of ``A * (A @ A)`` for a
    symmetric 0/1 adjacency ``A`` with an empty diagonal."""
    return np.asarray(adjacency.multiply(adjacency @ adjacency).sum(axis=1)).ravel()


def summary_oracle(asn: Asn):
    """Brute-force undirected statistics: BFS distances, triangle counting."""
    adjacency = _undirected(asn)
    nodes = list(adjacency)
    edge_count = sum(len(neigh) for neigh in adjacency.values()) // 2
    n = len(nodes)
    average_degree = 2.0 * edge_count / n
    clustering = math.fsum(local_clustering(asn)) / n

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
# dense integer grid.  Kept as the reference the fast fitter must match; its
# zeta is ``scipy.special.zeta``, so it shares no zeta code with the fitter.

#: Exponent bracket and golden-section tolerance of the reference fitter.
GOLDEN_LO, GOLDEN_HI, GOLDEN_TOL = 1.01, 6.0, 1e-6


def _tail_loglik(alphas, xmins, ntails, sumlogs):
    return -ntails * np.log(special.zeta(alphas, xmins)) - alphas * sumlogs


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
    z_tail = special.zeta(alphas, np.full(m, float(hi_val + 1)))
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


# The fit kernel's zeta sums and Newton solve before they skipped work past
# the summation horizon: every direct sum a full row of masked terms, the
# start and the one bracket end that can pin a candidate scored in two
# summations.  asnkit's kernels must equal these bit for bit.


def reference_em_tail(
    s: np.ndarray, a: np.ndarray, derivatives: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Euler-Maclaurin estimate of sum_{k>=0} (a+k)^-s for large a.

    Returns ``a^-s``, the first term of the sum, and ``[value]``, or
    ``[value, d/ds, d2/ds2]`` with ``derivatives``.
    """
    inv = 1.0 / a
    a_pow = a ** (-s)
    head = a * a_pow / (s - 1.0)
    total = head + 0.5 * a_pow
    term = s * a_pow * inv
    bernoulli = []
    for step, denom in enumerate((12.0, -720.0, 30240.0, -1209600.0)):
        if step:
            term = term * (s + (2 * step - 1)) * (s + 2 * step) * inv * inv
        part = term / denom
        total = total + part
        if derivatives:
            bernoulli.append(part)
    if not derivatives:
        return a_pow, [total]

    # Every term is c(s) * a^-(s+j), so its first s-derivative is the term
    # times r = (log c)' - log a and its second the term times r^2 + (log c)''.
    # c is a / (s-1) for the head, constant for the half term, and
    # const * s (s+1) ... (s+2 step) for the Bernoulli terms.
    log_a = np.log(a)
    head_rate = -1.0 / (s - 1.0) - log_a
    first = head * head_rate - 0.5 * a_pow * log_a
    second = head * (head_rate**2 + 1.0 / (s - 1.0) ** 2) + 0.5 * a_pow * log_a**2
    recip = 1.0 / (s + np.arange(7.0).reshape((7,) + (1,) * np.ndim(s)))
    rates = np.cumsum(recip, axis=0)[::2] - log_a
    bends = -np.cumsum(recip * recip, axis=0)[::2]
    bernoulli = np.stack(bernoulli)
    first = first + (bernoulli * rates).sum(axis=0)
    second = second + (bernoulli * (rates * rates + bends)).sum(axis=0)
    return a_pow, [total, first, second]


def reference_zeta_sums(
    s: np.ndarray, q: np.ndarray, derivatives: bool = False
) -> list[np.ndarray]:
    """Hurwitz zeta ``sum_{k>=0} (q+k)^-s`` of equal-shape float arrays, s in
    ``[ALPHA_LO, ALPHA_HI]`` and q > 0, with its first two s-derivatives
    when ``derivatives`` is set (see :func:`reference_em_tail`).

    One direct sum of the terms ``(q+k)^-s`` below ``_ZETA_HORIZON``, each
    also weighted by ``-log(q+k)`` and ``log^2(q+k)`` for the derivatives,
    plus the Euler-Maclaurin tail beyond it.  Every direct sum is a row
    ``ceil(_ZETA_HORIZON)`` terms wide, the terms at or past the horizon
    masked to zero, so its rounding depends on its own (s, q) alone.
    """
    n_terms = np.maximum(0.0, np.ceil(_ZETA_HORIZON - q))
    _, sums = reference_em_tail(s, q + n_terms, derivatives)
    k = np.arange(np.ceil(_ZETA_HORIZON))
    base = q[..., None] + k
    powers = base ** (-s[..., None])
    powers *= k < n_terms[..., None]
    sums[0] = powers.sum(axis=-1) + sums[0]
    if derivatives:
        neg_logs = np.negative(np.log(base, out=base), out=base)
        for d in (1, 2):
            powers *= neg_logs
            sums[d] = sums[d] + powers.sum(axis=-1)
    return sums


def _reference_score(alphas, xmins, mean_logs):
    """Score of the tail log-likelihood per observation, and its slope.

    The log-likelihood ``-n log zeta(alpha, xmin) - alpha sum(log x)`` has
    derivative ``-n * g`` with ``g = zeta'/zeta + mean(log x)``.  g rises
    strictly with alpha (its slope is the variance of log k under the fitted
    law), so the likelihood is strictly concave and g has at most one root.
    """
    z, dz, d2z = reference_zeta_sums(alphas, xmins, derivatives=True)
    ratio = dz / z
    return ratio + mean_logs, d2z / z - ratio * ratio


def reference_mle_alphas(xmins, ntails, sumlogs):
    """Per-candidate MLE exponents in ``[ALPHA_LO, ALPHA_HI]``.

    Every zeta sum depends only on its own candidate, so a candidate's
    exponent does not depend on the others solved with it.

    A candidate whose score does not change sign over the bracket is pinned
    at the end where its likelihood peaks.  The score rises with alpha, so
    the sign at the starting point, the continuous-data MLE, names the one
    end that can pin it, and only that end is scored, once per distinct
    (end, xmin) pair among the candidates.  The others run
    safeguarded Newton steps on the score in lockstep from the start: a step
    that would leave the bracket of the root is replaced by bisection, and a
    candidate stops once its step is below ``ALPHA_TOL``.
    """
    m = xmins.size
    mean_logs = sumlogs / ntails
    start = 1.0 + ntails / (sumlogs - ntails * np.log(xmins - 0.5))
    alphas = np.clip(start, ALPHA_LO, ALPHA_HI)
    g, slope = _reference_score(alphas, xmins, mean_logs)
    rising = g >= 0.0
    # zeta'/zeta at a bracket end depends on (end, xmin) alone: once per pair.
    pairs, pair = np.unique(np.where(rising, xmins, -xmins), return_inverse=True)
    ends = np.where(pairs > 0.0, ALPHA_LO, ALPHA_HI)
    z, dz, _ = reference_zeta_sums(ends, np.abs(pairs), derivatives=True)
    g_end = (dz / z)[pair] + mean_logs
    pinned = np.where(rising, g_end >= 0.0, g_end <= 0.0)
    alphas[pinned] = ends[pair[pinned]]
    lo = np.full(m, ALPHA_LO)
    hi = np.full(m, ALPHA_HI)
    active = np.flatnonzero(~pinned)
    g, slope = g[active], slope[active]
    while active.size:
        current = alphas[active]
        below = g < 0.0
        lo[active] = np.where(below, current, lo[active])
        hi[active] = np.where(below, hi[active], current)
        step = current - g / slope
        inside = (step > lo[active]) & (step < hi[active])
        step = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        alphas[active] = step
        active = active[np.abs(step - current) >= ALPHA_TOL]
        if active.size:
            g, slope = _reference_score(alphas[active], xmins[active], mean_logs[active])
    return alphas


# The draw asnkit's sampler made before its guide table: a binary search of
# every uniform in the doubling cumulative-sum table.


def reference_draws(alpha: float, xmin: int, u: np.ndarray) -> np.ndarray:
    """The inverse CDF of the discrete power law at each uniform of ``u``.

    The table of ``cumsum(k^-alpha) / zeta(alpha, xmin)`` over k = xmin,
    xmin + 1, ... starts at 1,024 entries and doubles while it ends below
    ``max(u)``, up to ``_MAX_TABLE``.  It stops early, cut after its last
    rising entry, once two neighbouring sums are equal: the terms past that
    point no longer change the sum.  Each draw is xmin plus the number of
    entries <= u.  Draws at or past the table's end are inverted on the
    zeta function by asnkit's ``_invert_beyond``.
    """
    u = np.asarray(u, dtype=np.float64)
    z = float(_zeta_sums(np.array([alpha]), np.array([float(xmin)]))[0][0])
    length = 1024
    while True:
        cdf = np.cumsum(np.power(np.arange(xmin, xmin + length, dtype=np.float64), -alpha) / z)
        flat = np.flatnonzero(cdf[1:] == cdf[:-1])
        if flat.size:
            cdf = cdf[: flat[0] + 1]
            break
        if cdf[-1] >= u.max(initial=0.0) or length >= _MAX_TABLE:
            break
        length *= 2
    draws = xmin + np.searchsorted(cdf, u, side="right")
    beyond = np.flatnonzero(draws >= xmin + cdf.size)
    if beyond.size:
        draws[beyond] = _invert_beyond(alpha, z, u[beyond], xmin + cdf.size - 1)
    return draws


def sample_discrete_powerlaw(alpha: float, xmin: int, size: int, seed) -> np.ndarray:
    """``size`` draws at ``alpha`` in the fit bracket by :func:`reference_draws`;
    ``seed`` is an integer or a Generator."""
    return reference_draws(alpha, int(xmin), np.random.default_rng(seed).random(size))


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


# ---------------------------------------------------------------------------
# Lognormal tails
# ---------------------------------------------------------------------------

# The lognormal fit asnkit ran before its Newton solve: Nelder-Mead on
# (mu, log sigma) over linear-space ``ndtr`` masses.  Where the maximum is
# interior it agrees with the Newton solve; where the family's supremum is
# its power-law limit, the simplex stops where the masses underflow.


def reference_lognormal_tail_loglik(tail: np.ndarray, xmin: float) -> np.ndarray:
    """Per-point log-likelihood of the best discrete lognormal tail.

    The continuous lognormal is discretized by integrating its density over
    ``[x - 0.5, x + 0.5]`` and renormalizing by the mass above
    ``xmin - 0.5``; both parameters are then fitted numerically.  Masses of
    cells above the median, and the renormalizing mass, are differences of
    the survival function: there ``ndtr`` rounds to 1 and its differences
    would cancel to 0.  Each distinct value's mass is computed once.
    """
    logs = np.log(tail)
    values, inverse, counts = np.unique(tail, return_inverse=True, return_counts=True)
    upper_edges = np.log(values + 0.5)
    lower_edges = np.log(values - 0.5)
    trunc_edge = np.log(xmin - 0.5) if xmin > 0.5 else -np.inf

    def per_value(params):
        mu, log_sigma = params
        sigma = np.exp(log_sigma)
        upper = (upper_edges - mu) / sigma
        lower = (lower_edges - mu) / sigma
        mass = np.where(
            lower > 0.0, special.ndtr(-lower) - special.ndtr(-upper), special.ndtr(upper) - special.ndtr(lower)
        )
        surv = special.ndtr((mu - trunc_edge) / sigma)
        if surv <= 0.0 or np.any(mass <= 0.0):
            return None
        return np.log(mass) - np.log(surv)

    def objective(params):
        pv = per_value(params)
        if pv is None:
            return 1e12
        return -(counts * pv).sum()

    start = np.array([logs.mean(), np.log(logs.std() + 1e-3)])
    result = optimize.minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": 5000},
    )
    best = per_value(result.x)
    if best is None:
        best = per_value(start)
    if best is None:
        raise ValueError(
            "lognormal fit is infeasible: the discretised lognormal gives "
            "zero mass to some tail value"
        )
    return best[inverse]


def mpmath_lognormal_loglik(tail, xmin, a, b, digits: int = 50) -> np.ndarray:
    """Per-point log-likelihood of the discretised lognormal tail at natural
    parameters ``a = mu / sigma^2``, ``b = 1 / (2 sigma^2) >= 0``, in
    ``digits``-digit arithmetic.

    A point x has the integral of ``exp(a t - b t^2)`` over
    ``log(x - 1/2) < t < log(x + 1/2)``, over its integral above
    ``log(xmin - 1/2)``.  For b > 0 each integral is a difference of
    ``erfc``, taken on the side of the mode the cell lies on; for b = 0 it
    is a difference of exponentials, a cell-integrated power law.
    """
    with mpmath.workdps(digits):
        a, b, half = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(1) / 2

        def integral(lo, hi):
            if b == 0:
                return ((mpmath.exp(a * hi) if hi < mpmath.inf else 0) - mpmath.exp(a * lo)) / a
            root, mode = mpmath.sqrt(b), a / (2 * b)
            scale = mpmath.sqrt(mpmath.pi / b) / 2 * mpmath.exp(b * mode * mode)
            if hi <= mode:
                return scale * (mpmath.erfc(root * (mode - hi)) - mpmath.erfc(root * (mode - lo)))
            upper = mpmath.erfc(root * (hi - mode)) if hi < mpmath.inf else 0
            return scale * (mpmath.erfc(root * (lo - mode)) - upper)

        norm = mpmath.log(integral(mpmath.log(xmin - half), mpmath.inf))
        per_value = {
            v: float(mpmath.log(integral(mpmath.log(v - half), mpmath.log(v + half))) - norm)
            for v in map(int, np.unique(tail))
        }
    return np.array([per_value[int(v)] for v in tail])


def mpmath_cell_moments(lo, hi, a, b, digits: int = 30) -> list[float]:
    """Raw moments E[t^j], j = 0..4, of the weight ``exp(a t - b t^2)`` on
    ``lo < t < hi`` (``hi`` may be ``inf``), by mpmath quadrature."""
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def integral(j):
            return mpmath.quad(lambda t: t**j * mpmath.exp(a * t - b * t * t), [lo, hi])

        mass = integral(0)
        return [float(integral(j) / mass) for j in range(5)]
