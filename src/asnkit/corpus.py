"""Corpus model: grammatical roles, treebank reading, and missing annotations.

A corpus is a set of manually annotated sentences.  Every sentence is a
dependency tree: one root token points to head 0, every other token points to
exactly one head inside the sentence, and every token is reachable from the
root.  Sentences carry the century they were written in so that downstream
aggregation can build one network per century.

The one way in is a plain-text treebank: ``# key = value`` header lines set
metadata for the sentences that follow, sentences are separated by blank
lines, and each token line has exactly six tab-separated columns::

    INDEX<TAB>SURFACE<TAB>LEMMA<TAB>ROLE<TAB>HEAD<TAB>RULE

``RULE`` may be ``_`` to request classification from the head token's role.
Missing annotations in the sources are marked by the sentinel lemmas ``!`` or
``unbekannt``; only such tokens may carry ``_`` in the ROLE column.

One reader serves :func:`load_corpus`, which the pipeline reads its files
with, and :func:`audit_corpus`, which ``asnkit validate`` runs: one decode
step, :func:`read_text`, then one sentence loop over all sources.  Loading
raises the first problem; an audit lists them all and, given a missing
policy, also what the pipeline refuses after reading.

The reader works in bulk.  One regular expression finds the header, comment
and blank lines of a source; the token lines between them are split and
checked a few thousand at a time, column by column.  What the reader keeps
are columns, not token objects: :attr:`CorpusSlice.trees` holds the
sentence and token fields that :func:`filter_slice`,
:func:`asnkit.network.aggregate` and the summary read, and no other.  The
SURFACE column is checked but not kept, and ``# dialect`` headers are
accepted but not kept.

Each corpus rule is one kernel over token columns, which also words its
results: an ordered table of row masks in :func:`_read_chunk` decides the
rules of a token line, pointer jumping over the heads (Wyllie, "The
complexity of parallel computations", Cornell, 1979) the tree constraints
and every depth, and :class:`_Verdicts` the missing-annotation policies.
The reader, :func:`filter_slice` and :func:`audit_corpus` run them over many
sentences at once.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GrammaticalRole",
    "PRONOUN_ROLES",
    "VERB_ROLES",
    "PHRASE_RULES",
    "MISSING_LEMMAS",
    "TreeViolation",
    "TreeValidationError",
    "CorpusSlice",
    "MissingPolicy",
    "FilterDecision",
    "filter_slice",
    "CorpusFormatError",
    "CorpusIssue",
    "audit_corpus",
    "read_text",
    "load_corpus",
]


class GrammaticalRole(enum.Enum):
    """Closed set of 19 grammatical role codes used by the annotation scheme."""

    ADVERB = "AD"
    ADJECTIVE = "AJ"
    ARTICLE = "AR"
    AUXILIARY = "AX"
    COORDINATING_CONJUNCTION = "CJ"
    DEMONSTRATIVE_PRONOUN = "DM"
    INFINITIVE_VERB = "IV"
    MODAL_VERB = "MV"
    NOUN = "N"
    PARTICLE = "PK"
    PREPOSITION = "PR"
    PERSONAL_PRONOUN = "PP"
    POSSESSIVE_PRONOUN = "PS"
    PRESENT_PARTICIPLE = "PCPR"
    PAST_PARTICIPLE = "PCPS"
    REFLEXIVE_PRONOUN = "RX"
    RELATIVE_PRONOUN = "RPO"
    SUBORDINATING_CONJUNCTION = "SC"
    VERB = "V"

    @classmethod
    def from_code(cls, code: str) -> "GrammaticalRole":
        """Parse a role code; any string outside the 19 codes is rejected."""
        role = _ROLES.get(code)
        if role is None:  # "_" is in the table but names no role
            raise ValueError(_unknown_role(code))
        return role

    @property
    def code(self) -> str:
        return self.value


#: The role of each code, the 19 roles' codes then ``_`` (a missing role);
#: a role's position here is its index in the token columns.
_ROLE_OF_CODE: tuple[GrammaticalRole | None, ...] = (*GrammaticalRole, None)
_ROLE_CODES = tuple("_" if r is None else r.value for r in _ROLE_OF_CODE)

#: The one code -> role table.
_ROLES = dict(zip(_ROLE_CODES, _ROLE_OF_CODE))


def _unknown_role(code: str) -> str:
    return f"unknown grammatical role code {code!r}"


#: A character that XML 1.0 cannot carry, not even as a reference.
_NOT_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
_NOT_XML = re.compile(_NOT_XML_CHAR).search


#: Pronoun roles; together with nouns they head nominal phrases.
PRONOUN_ROLES = frozenset(
    {
        GrammaticalRole.PERSONAL_PRONOUN,
        GrammaticalRole.POSSESSIVE_PRONOUN,
        GrammaticalRole.DEMONSTRATIVE_PRONOUN,
        GrammaticalRole.REFLEXIVE_PRONOUN,
        GrammaticalRole.RELATIVE_PRONOUN,
    }
)

#: Verbal roles; they head verbal phrases.
VERB_ROLES = frozenset(
    {
        GrammaticalRole.VERB,
        GrammaticalRole.INFINITIVE_VERB,
        GrammaticalRole.MODAL_VERB,
        GrammaticalRole.AUXILIARY,
        GrammaticalRole.PRESENT_PARTICIPLE,
        GrammaticalRole.PAST_PARTICIPLE,
    }
)

#: Valid phrase-rule tags, in canonical order.
PHRASE_RULES = ("NP", "VP", "PP", "OTHER")

#: Sentinel lemmas marking annotations that are absent in the sources.
MISSING_LEMMAS = frozenset({"!", "unbekannt"})


#: The phrase a ``_`` RULE resolves to, by the role of its head: nominal
#: phrases are headed by a noun or a pronoun, verbal phrases by a verb form,
#: prepositional phrases by a preposition.  Any other head role, a head
#: without a role, and no head (the root) give the containment tag ``OTHER``.
_PHRASE_OF_HEAD = {
    GrammaticalRole.NOUN: "NP",
    **dict.fromkeys(PRONOUN_ROLES, "NP"),
    **dict.fromkeys(VERB_ROLES, "VP"),
    GrammaticalRole.PREPOSITION: "PP",
}

#: The rule index in ``PHRASE_RULES`` a ``_`` RULE resolves to, by the role
#: index of the head.
_RULE_OF_ROLE = np.array([
    PHRASE_RULES.index(_PHRASE_OF_HEAD.get(role, "OTHER")) for role in _ROLE_OF_CODE
], dtype=np.int8)


@dataclass(frozen=True)
class TreeViolation:
    """One violated tree constraint, pointing at the offending token."""

    constraint: str
    token_index: int | None
    message: str

    def __str__(self) -> str:
        where = f" at token {self.token_index}" if self.token_index else ""
        return f"{self.constraint}{where}: {self.message}"


class TreeValidationError(ValueError):
    """Raised when the heads of a sentence do not form a dependency tree."""

    def __init__(self, sentence_id: str, violations: Sequence[TreeViolation]):
        self.sentence_id = sentence_id
        self.violations = tuple(violations)
        details = "; ".join(str(v) for v in violations)
        super().__init__(f"sentence {sentence_id!r} is not a tree: {details}")


def _violations(heads: Sequence[int]) -> list[TreeViolation]:
    """The tree constraints a sentence whose token ``k + 1`` has head
    ``heads[k]`` (no self-heads) violates, in this order: no root, each extra
    root, each head out of range, then each cycle of heads.

    Cycles come in the order of the first token whose chain of heads reaches
    them; each is listed from where that token's chain enters it and
    anchored at its smallest index.
    """
    n = len(heads)
    head = np.fromiter((min(h, _FAR) for h in heads), np.int64, n)
    parent, top, _ = _tree_shape(head, np.array([0, n]))
    roots = (np.flatnonzero(head == 0) + 1).tolist()
    violations = [] if roots else [TreeViolation("no root", None, "no token has head 0")]
    violations += [TreeViolation("multiple roots", extra,
                                 f"head 0 already claimed by token {roots[0]}")
                   for extra in roots[1:]]
    violations += [TreeViolation("head out of range", k + 1,
                                 f"head {heads[k]} exceeds sentence length {n}")
                   for k in np.flatnonzero(head > n).tolist()]
    # A chain that loops has its top on the loop, and the tops of a loop's
    # rows are all of its rows.
    looping = parent[top] != top
    loop = np.bincount(top[looping], minlength=n) > 0  # rows on loops not yet reported
    parent = parent.tolist()
    for first in np.flatnonzero(looping).tolist():
        if loop[top[first]]:
            entry = first
            while not loop[entry]:
                entry = parent[entry]
            cycle = [entry]
            while parent[cycle[-1]] != entry:
                cycle.append(parent[cycle[-1]])
            loop[cycle] = False
            pretty = " -> ".join(str(row + 1) for row in cycle + [entry])
            violations.append(
                TreeViolation("head cycle", min(cycle) + 1, f"cycle {pretty}"))
    return violations


#: The role index of each role code.
_ROLE_INDEX = {code: k for k, code in enumerate(_ROLE_CODES)}
_NO_ROLE = len(GrammaticalRole)

#: Rule index of a RULE value; ``_``, resolved from the head's role, is last.
_RULE_INDEX = {rule: k for k, rule in enumerate((*PHRASE_RULES, "_"))}
_RESOLVE = len(PHRASE_RULES)

_SENTENCE_COLUMNS = ("sentence_id", "century", "target_id", "depth")
_TOKEN_COLUMNS = ("head", "role", "rule", "missing", "lemma", "line")


def _offsets(lengths) -> np.ndarray:
    """Start of each run of the given lengths, then the total."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _sentence_of(offsets: np.ndarray) -> np.ndarray:
    """The sentence of every token row."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _parents(head: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each token's head row; a root, or a head outside the sentence, gives
    the token's own row."""
    lengths = np.diff(offsets)
    sentence = _sentence_of(offsets)
    inside = (head > 0) & (head <= lengths[sentence])
    return np.where(inside, offsets[sentence] + head - 1, np.arange(head.size))


def _tree_shape(
    head: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per token: its head row (see :func:`_parents`); the row its chain of
    heads ends at (a root, or a token whose head is outside the sentence),
    or a row on the loop the chain runs into; and how many heads it follows
    to the end of its chain.

    Pointer jumping: each round every token adds the distance its pointer
    spans and then points where its pointer points, so after ``r`` rounds it
    has followed ``2**r`` heads or stopped at the end of its chain.  A round
    count whose power of two exceeds the longest sentence ends every chain
    that does not loop, and puts every other on its loop; in a tree the
    distance is the token's depth.
    """
    parent = _parents(head, offsets)
    top = parent
    depth = (parent != np.arange(parent.size)).astype(np.int64)
    for _ in range(int(np.diff(offsets).max(initial=0)).bit_length()):
        depth += depth[top]
        top = top[top]
    return parent, top, depth


def _intern(column: list[str], strings: list[str], table: dict[str, int]) -> np.ndarray:
    """The ids of ``column`` in ``strings``; new strings are appended once."""
    new = [s for s in dict.fromkeys(column) if s not in table]
    table.update(zip(new, range(len(strings), len(strings) + len(new))))
    strings += new
    return np.fromiter(map(table.__getitem__, column), np.int32, len(column))


def _sentence_columns(
    spans: Sequence[_Span], strings: list[str], table: dict[str, int]
) -> dict[str, np.ndarray]:
    """The per-sentence columns but ``depth``, from the sentences' spans."""
    known = [i for i, span in enumerate(spans) if span.target is not None]
    target_id = np.full(len(spans), -1, dtype=np.int32)
    target_id[known] = _intern([spans[i].target for i in known], strings, table)
    return {
        "sentence_id": np.fromiter((s.sent_id for s in spans), object, len(spans)),
        "century": np.fromiter((s.century for s in spans), object, len(spans)),
        "target_id": target_id,
    }


class _TreeColumns:
    """The sentences of a slice as columns, in input order.

    Token ``k`` (from 0) of sentence ``i`` is row ``offsets[i] + k`` of the
    token columns; its index is ``k + 1``.  Per sentence: ``sentence_id``
    and ``century`` (Python objects, as the headers set them),
    ``target_id`` (the target lemma's id in ``strings``, -1 for none) and
    ``depth`` (the length in edges of the longest root-to-leaf path).  Per
    token: ``head`` (0 for the root), ``role`` (an index into
    ``_ROLE_OF_CODE``), ``rule`` (into ``PHRASE_RULES``, a ``_`` RULE
    resolved), ``missing``, ``lemma`` (an id into ``strings``, which columns
    read together share) and ``line`` (the source line).  These are the
    fields some stage reads; the reader keeps no other.  ``len`` is the
    number of sentences; :meth:`take` selects some.
    """

    def __init__(self, strings: list[str], offsets: np.ndarray, **columns) -> None:
        self.strings = strings
        self.offsets = offsets
        for name in _SENTENCE_COLUMNS + _TOKEN_COLUMNS:
            setattr(self, name, columns[name])

    @staticmethod
    def concat(parts: Sequence["_TreeColumns"]) -> "_TreeColumns":
        """The sentences of ``parts``, which share their strings, in order."""
        return _TreeColumns(
            parts[0].strings,
            _offsets(np.concatenate([np.diff(p.offsets) for p in parts])),
            **{name: np.concatenate([getattr(p, name) for p in parts])
               for name in _SENTENCE_COLUMNS + _TOKEN_COLUMNS},
        )

    def take(self, rows) -> "_TreeColumns":
        """The sentences at positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = _offsets(lengths)
        tokens = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return _TreeColumns(
            self.strings, offsets,
            **{name: getattr(self, name)[rows] for name in _SENTENCE_COLUMNS},
            **{name: getattr(self, name)[tokens] for name in _TOKEN_COLUMNS},
        )

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the tokens whose head is in their sentence, and the
        rows of those heads."""
        parent = _parents(self.head, self.offsets)
        dependent = np.flatnonzero(parent != np.arange(parent.size))
        return dependent, parent[dependent]

    def __len__(self) -> int:
        return self.offsets.size - 1


@dataclass(frozen=True)
class CorpusSlice:
    """All validated sentences of one century, in input order.

    ``trees`` holds their columns as the reader produced them, which
    :func:`filter_slice` and :func:`asnkit.network.aggregate` read; its
    ``len`` is the number of sentences.

    Raises
    ------
    TypeError
        If ``trees`` are not the columns of a parsed slice.
    ValueError
        If a sentence is of another century.
    """

    century: int
    trees: _TreeColumns

    def __post_init__(self) -> None:
        trees = self.trees
        if not isinstance(trees, _TreeColumns):
            raise TypeError(
                "trees must be the columns of a parsed slice (CorpusSlice.trees), "
                f"got {type(trees).__name__}"
            )
        wrong = np.flatnonzero(trees.century != self.century)
        if wrong.size:
            i = wrong[0]
            raise ValueError(
                f"tree {trees.sentence_id[i]!r} has century {trees.century[i]}, "
                f"slice has {self.century}"
            )


class MissingPolicy(enum.Enum):
    """How to treat sentences containing missing annotations."""

    DROP_ANY = "drop-any"
    DROP_ADJACENT_TO_TARGET = "drop-adjacent-to-target"
    KEEP_ALL = "keep-all"

    @classmethod
    def from_name(cls, name: str) -> "MissingPolicy":
        try:
            return cls(name)
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown missing policy {name!r} (choose from {options})"
            ) from None


class FilterDecision(NamedTuple):
    """Why a missing-annotation policy dropped the sentence ``sentence_id``."""

    sentence_id: str
    reason: str


class _Verdicts:
    """A missing-annotation policy over every tree of some columns at once.

    Per tree, ``keep``: the policy keeps it; ``unjudged``: the policy cannot
    judge it (and does not keep it).  :meth:`decision` words one drop.
    ``policy`` is a member or its name; an unknown name is a ``ValueError``.
    """

    def __init__(self, trees: _TreeColumns, policy: MissingPolicy | str) -> None:
        policy = MissingPolicy.from_name(policy)
        self.trees, self.policy, count = trees, policy, len(trees)
        sentence = _sentence_of(trees.offsets)
        self.missing = np.bincount(sentence[trees.missing], minlength=count)
        self.unjudged = np.zeros(count, dtype=bool)
        self.keep = (self.missing == 0) | (policy is MissingPolicy.KEEP_ALL)
        if policy is MissingPolicy.DROP_ADJACENT_TO_TARGET:
            target = trees.lemma == trees.target_id[sentence]
            absent = np.bincount(sentence[target], minlength=count) == 0
            self.unjudged = ~self.keep & absent
            dependent, head = trees.links()
            up = trees.missing[dependent] & target[head]
            down = target[dependent] & trees.missing[head]
            # Each (missing row, target row) pair that a head link joins, as
            # a key that orders pairs by missing row, then target row.
            rows = self.rows = trees.head.size
            keys = np.concatenate([dependent[up] * rows + head[up],
                                   head[down] * rows + dependent[down]])
            self.least = np.full(count, rows * rows)
            np.minimum.at(self.least, sentence[keys // rows], keys)
            self.keep = (self.least == rows * rows) & ~self.unjudged

    def target(self, i: int) -> str | None:
        """The target lemma of tree ``i``, if it has one."""
        found = int(self.trees.target_id[i])
        return None if found < 0 else self.trees.strings[found]

    def unjudged_reason(self, i: int) -> str:
        target = self.target(i)
        if target is None:
            return f"policy {self.policy.value!r} needs a target lemma to judge adjacency"
        return f"target lemma {target!r} does not occur, cannot judge adjacency"

    def decision(self, i: int) -> FilterDecision:
        """The decision that drops tree ``i``, which the policy does not keep;
        a ``ValueError`` if it is unjudged."""
        trees = self.trees
        if self.unjudged[i]:
            raise ValueError(
                f"sentence {trees.sentence_id[i]!r}: {self.unjudged_reason(i)}")
        if self.policy is MissingPolicy.DROP_ANY:
            reason = f"tree contains {int(self.missing[i])} missing annotation(s)"
        else:
            start = int(trees.offsets[i]) - 1
            m, t = (row - start for row in divmod(int(self.least[i]), self.rows))
            reason = (f"missing neighbor of target: token {m} is adjacent "
                      f"to {self.target(i)!r} at token {t}")
        return FilterDecision(trees.sentence_id[i], reason)


def filter_slice(
    corpus_slice: CorpusSlice, policy: MissingPolicy | str
) -> tuple[CorpusSlice, list[FilterDecision]]:
    """Apply a missing-annotation policy to every sentence of a slice.

    ``drop-any`` drops every sentence containing a missing token.  The
    default pipeline policy ``drop-adjacent-to-target`` drops a sentence only
    when a missing token is the head of, or a direct dependent of, an
    occurrence of the sentence's target lemma — missing material elsewhere
    does not interfere with identifying how the target is used; the reason
    names the least (missing token, target token) pair.  ``keep-all`` never
    drops.  ``policy`` is a :class:`MissingPolicy` or its name; an unknown
    name is a ``ValueError``, and so is the first sentence the adjacency
    policy cannot judge (it has missing tokens and no target lemma, or the
    target lemma does not occur).  Returns the slice of the kept sentences
    and a decision for each dropped one, both in input order.
    """
    trees = corpus_slice.trees
    verdicts = _Verdicts(trees, policy)
    dropped = [verdicts.decision(i) for i in np.flatnonzero(~verdicts.keep).tolist()]
    kept = trees.take(np.flatnonzero(verdicts.keep)) if dropped else trees
    return CorpusSlice(corpus_slice.century, kept), dropped


class CorpusFormatError(ValueError):
    """Raised for malformed treebank input; carries source and line number."""

    def __init__(self, provenance: str, line: int, message: str):
        self.provenance = provenance
        self.line = line
        self.message = message
        super().__init__(f"{provenance}:{line}: {message}")


@dataclass(frozen=True)
class CorpusIssue:
    """One problem found while auditing treebank files; an issue of the
    whole corpus has no ``provenance`` and no ``line``."""

    provenance: str | None
    line: int | None
    sentence_id: str | None
    kind: str
    message: str

    def __str__(self) -> str:
        if self.provenance is None:
            return f"{self.kind}: {self.message}"
        sent = f" sentence {self.sentence_id!r}" if self.sentence_id else ""
        return f"{self.provenance}:{self.line}:{sent} {self.kind}: {self.message}"


_HEADER_KEYS = ("century", "doc_id", "dialect", "target", "sent_id")


def read_text(source: str | bytes | Path, provenance: str) -> str:
    """Decode a file (a ``Path``), bytes or a string: the one decode step of
    treebanks and of ``asnkit`` configuration files.

    Bytes are UTF-8 and a leading BOM is dropped; bytes that are not UTF-8
    raise :class:`CorpusFormatError` at their line.  Only ``"\\n"`` ends a
    line, and one ``"\\r"`` before it is dropped: a lone ``"\\r"``, U+2028
    or a form feed stays inside its field, where ``str.splitlines`` would
    break.
    """
    data = source.read_bytes() if isinstance(source, Path) else source
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                provenance, exc.object.count(b"\n", 0, exc.start) + 1,
                f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})",
            ) from None
    else:
        data = data.removeprefix("\ufeff")
    data = data.replace("\r\n", "\n")
    return data[:-1] if data.endswith("\r") else data


#: An integer field as the format writes it; ``int`` alone would also take a
#: ``+`` sign, spaces, underscores and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


class _Span(NamedTuple):
    """A sentence as the line scan finds it: its id, the headers in force
    there that the reader keeps, its first line, the ``(start, end, first
    line, line count)`` runs of its token lines in the text (``## `` lines
    split a sentence into runs), and whether its id is generated."""

    sent_id: str
    century: int
    doc_id: str
    target: str | None
    first_line: int
    runs: list[tuple[int, int, int, int]]
    generated: bool


#: The line break before a line that holds no token: a ``## `` comment
#: (group 1), a header (group 2) or a blank line.  Only ``"\n"`` ends a line
#: for ``$`` and ``.``, and ``\s`` is what ``str.strip`` removes.  Starting
#: with a literal lets the search skip ahead to each line break.
_NOT_TOKENS = re.compile(r"\n(?:(## .*)|(#.*)|[^\S\n]*$)", re.MULTILINE)


def _scan(
    text: str, provenance: str, counter: dict[str, int]
) -> tuple[list[_Span], CorpusFormatError | None, bool]:
    """The sentences of a source's text, up to its first header or layout
    error; and that error, and whether the last sentence is cut short by it.

    ``text`` is the source's text after a ``"\\n"`` that the lines are
    numbered from.  A sentence without a ``sent_id`` header is its
    document's next in ``counter``, which counts on from source to source.
    Every non-token line costs a step here; token lines are only counted.
    """
    meta: dict = {"century": None, "doc_id": "", "target": None}
    pending_sent_id: str | None = None
    spans: list[_Span] = []
    runs = None  # the token-line runs of the open sentence
    pos, line_no = 1, 1
    try:
        for match in chain(_NOT_TOKENS.finditer(text), [None]):
            start = len(text) + 1 if match is None else match.start() + 1
            if start > pos:  # token lines fill text[pos:start - 1]
                if runs is None:
                    if meta["century"] is None:
                        raise CorpusFormatError(
                            provenance, line_no,
                            "sentence begins before any '# century = ...' header",
                        )
                    doc, generated = meta["doc_id"], pending_sent_id is None
                    if generated:
                        counter[doc] = counter.get(doc, 0) + 1
                        sent_id = f"{doc}:{counter[doc]}"
                    else:
                        sent_id, pending_sent_id = pending_sent_id, None
                    runs = []
                    spans.append(_Span(sent_id, meta["century"], doc, meta["target"],
                                       line_no, runs, generated))
                count = text.count("\n", pos, start - 1) + 1
                runs.append((pos, start - 1, line_no, count))
                line_no += count
            if match is None:
                break
            comment, line = match.groups()
            if line is not None:
                if runs is not None:
                    raise CorpusFormatError(
                        provenance, line_no, "header line inside a sentence"
                    )
                body = line[1:].strip()
                if "=" not in body:
                    raise CorpusFormatError(
                        provenance, line_no, f"malformed header line {line!r}"
                    )
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _HEADER_KEYS:
                    allowed = ", ".join(_HEADER_KEYS)
                    raise CorpusFormatError(
                        provenance, line_no,
                        f"unknown header key {key!r} (allowed: {allowed})",
                    )
                if key == "century":
                    if not _INTEGER.fullmatch(value):
                        raise CorpusFormatError(
                            provenance, line_no,
                            f"century must be an integer, got {value!r}",
                        )
                    meta["century"] = int(value)
                elif key == "sent_id":
                    pending_sent_id = value
                elif key != "dialect":  # accepted, not kept
                    meta[key] = value
            elif comment is None:
                runs = None
            pos, line_no = match.end() + 1, line_no + 1
    except CorpusFormatError as exc:
        return spans, exc, runs is not None
    return spans, None, False


class _Problem(NamedTuple):
    """One problem of a source: what parsing raises, what an audit lists."""

    error: ValueError
    issues: list[CorpusIssue]


def _format_problem(error: CorpusFormatError) -> _Problem:
    return _Problem(error, [CorpusIssue(
        error.provenance, error.line, None, "format error", error.message
    )])


#: Token lines per chunk: enough to spread the cost of each bulk step, few
#: enough that a chunk's field strings stay small beside the corpus.
_CHUNK_LINES = 4096

#: The value of each integer field written the usual way, up to a length
#: few sentences reach.
_NUMERALS = {str(k): k for k in range(1024)}

#: Where integer fields beyond int64 are clamped: past any sentence length.
_FAR = 2**62


def _integers(column: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The values of a column of integer fields, clamped to +-``_FAR``, and
    which fields are not an ASCII ``-?[0-9]+`` (their value is 0)."""
    values = np.fromiter(map(_NUMERALS.get, column, repeat(-1)), np.int64, len(column))
    wrong = np.zeros(len(column), dtype=bool)
    for k in np.flatnonzero(values < 0).tolist():
        if _INTEGER.fullmatch(column[k]):
            values[k] = max(-_FAR, min(int(column[k]), _FAR))
        else:
            values[k], wrong[k] = 0, True
    return values, wrong


def _read_chunk(
    text: str, spans: Sequence[_Span], sizes: Sequence[int], provenance: str,
    strings: list[str], table: dict[str, int],
) -> tuple[_TreeColumns, dict[int, _Problem], CorpusFormatError | None]:
    """The sentences ``spans`` (of ``sizes`` token lines) in front of the
    first token line that breaks a rule: their columns and the problem of
    each that has a self-headed token or is no tree; and that line's error,
    or ``None`` when every line keeps the rules.

    The token-line rules are one ordered table of (row mask, message), each
    mask computed once over the whole chunk.  The first bad line is the
    first row where any mask holds, and the first rule that holds there
    words its error from the line's fields, an integer field by its exact
    value, not as clamped to int64.
    """
    runs = [run for span in spans for run in span.runs]
    joined = "\n".join([text[start:end] for start, end, _, _ in runs])
    offsets = _offsets(sizes)
    sentence = _sentence_of(offsets)
    counts = np.array([run[3] for run in runs])
    first_lines = np.array([run[2] for run in runs])
    line = (np.repeat(first_lines - _offsets(counts)[:-1], counts)
            + np.arange(sentence.size)).astype(np.int32)
    # A line's columns are its separators up to and with its line break.
    # Tab and line break are ASCII, so "surrogatepass" keeps their places.
    separators = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
    separators = separators[(separators == 9) | (separators == 10)]
    columns = np.diff(np.flatnonzero(separators == 10), prepend=-1, append=separators.size)
    # The rows in front of the first with another column count split into
    # six fields each.
    m = int(np.argmax(np.append(columns != 6, True)))
    fields = joined.replace("\n", "\t").split("\t")
    idx_s, surface_s, lemma_s, role_s, head_s, rule_s = (fields[k:6 * m:6] for k in range(6))
    index, not_index = _integers(idx_s)
    head, not_head = _integers(head_s)
    position = np.arange(m) - offsets[sentence[:m]] + 1
    lemma = _intern(lemma_s, strings, table)
    missing = lemma < len(MISSING_LEMMAS)  # the sentinels come first
    empty = table.get("", -1)  # the id of an empty field, if there is one
    role = np.fromiter(map(_ROLE_INDEX.get, role_s, repeat(-1)), np.int8, m)
    rule = np.fromiter(map(_RULE_INDEX.get, rule_s, repeat(-1)), np.int8, m)
    # In the order a line is checked; all masks but the first cover only
    # the first m rows.
    rules = (
        (columns != 6, lambda r: f"expected 6 tab-separated columns, got {columns[r]}"),
        (not_index, lambda r: f"token index must be an integer, got {idx_s[r]!r}"),
        (not_head, lambda r: f"head must be an integer, got {head_s[r]!r}"),
        (head < 0, lambda r: f"head must be >= 0, got {int(head_s[r])}"),
        (index != position, lambda r: (f"token index {int(idx_s[r])} is not "
                                       f"contiguous (expected {position[r]})")),
        ((np.fromiter(map(len, surface_s), np.int64, m) == 0) | (lemma == empty),
         lambda r: "SURFACE and LEMMA must be non-empty"),
        (role < 0, lambda r: _unknown_role(role_s[r])),
        ((role == _NO_ROLE) & ~missing,
         lambda r: "ROLE '_' is only allowed for missing-annotation lemmas"),
        (rule < 0, lambda r: (f"RULE must be one of {', '.join(PHRASE_RULES)} "
                              f"or '_', got {rule_s[r]!r}")),
    )
    bad = min((int(mask.argmax()) for mask, _ in rules if mask.any()), default=None)
    line_error, kept = None, len(spans)
    if bad is not None:
        word = next(word for mask, word in rules if bad < mask.size and mask[bad])
        line_error = CorpusFormatError(provenance, int(line[bad]), word(bad))
        kept = int(sentence[bad])
    n = int(offsets[kept])
    offsets, spans, sentence = offsets[:kept + 1], spans[:kept], sentence[:n]
    head, index, role, rule, lemma, missing = (
        a[:n] for a in (head, index, role, rule, lemma, missing))

    parent, top, depth = _tree_shape(head, offsets)
    head_role = np.where(parent != np.arange(n), role[parent], _NO_ROLE)
    rule = np.where(rule == _RESOLVE, _RULE_OF_ROLE[head_role], rule)
    starts = offsets[:-1]
    trees = _TreeColumns(
        strings, offsets, **_sentence_columns(spans, strings, table),
        depth=np.maximum.reduceat(depth, starts),
        head=head, role=role, rule=rule, missing=missing, lemma=lemma, line=line[:n],
    )

    self_head = head == index
    roots = np.bincount(sentence[head == 0], minlength=kept)
    is_tree = (roots == 1) & np.logical_and.reduceat(head[top] == 0, starts)
    problems: dict[int, _Problem] = {}
    failed = np.logical_or.reduceat(self_head, starts) | ~is_tree
    for i in np.flatnonzero(failed).tolist():
        span, lo, hi = spans[i], offsets[i], offsets[i + 1]
        own = np.flatnonzero(self_head[lo:hi])
        if own.size:
            k = int(own[0])
            error = CorpusFormatError(
                provenance, int(line[lo + k]), f"token {k + 1} points at itself as head",
            )
            issues = [CorpusIssue(provenance, error.line, span.sent_id,
                                  "malformed token", error.message)]
        else:
            # The heads as written: a head beyond int64 was clamped above.
            heads = list(map(int, head_s[lo:hi]))
            error = TreeValidationError(span.sent_id, _violations(heads))
            issues = [CorpusIssue(provenance, span.first_line, span.sent_id,
                                  v.constraint, v.message) for v in error.violations]
        problems[i] = _Problem(error, issues)
    return trees, problems, line_error


class _Read(NamedTuple):
    """Sentences of one source that passed every check."""

    provenance: str
    trees: _TreeColumns


def _in_order(
    trees: _TreeColumns, problems: dict[int, _Problem], spans: Sequence[_Span],
    provenance: str, number: int, seen: dict,
) -> Iterator[_Read | _Problem]:
    """The first ``len(spans)`` sentences of a chunk in order: each problem
    on its own, the sentences between problems as columns.

    A sentence whose id its document already used is a problem before any
    other; ids are registered here, in reading order.
    """
    good = 0
    for i, span in enumerate(spans):
        key = (span.doc_id, span.sent_id)
        if key in seen:
            number0, provenance0, line0 = seen[key]
            where = (f"first seen at line {line0}" if number0 == number
                     else f"also in {provenance0}")
            problem = _Problem(CorpusFormatError(
                provenance, span.first_line,
                f"duplicate sentence id {span.sent_id!r} in "
                f"document {span.doc_id!r} ({where})",
            ), [CorpusIssue(provenance, span.first_line, span.sent_id,
                            "duplicate sentence id", where)])
        else:
            seen[key] = (number, provenance, span.first_line)
            problem = problems.get(i)
        if problem is not None:
            if good < i:
                yield _Read(provenance, trees.take(np.arange(good, i)))
            yield problem
            good = i + 1
    if good < len(spans):
        whole = good == 0 and len(spans) == len(trees)
        yield _Read(provenance, trees if whole else trees.take(np.arange(good, len(spans))))


def _read_source(
    text: str, provenance: str, number: int, seen: dict, counter: dict[str, int],
    strings: list[str], table: dict[str, int],
) -> Iterator[_Read | _Problem]:
    """Every sentence and problem of one source, in reading order.

    A sentence's problems surface where it ends; a line that cannot be read
    ends the source, and the sentence holding it is not reported.  The
    sentences after it take no generated id from ``counter``.
    """
    text = "\n" + text
    spans, error, cut = _scan(text, provenance, counter)
    sizes = [sum(run[3] for run in span.runs) for span in spans]
    done = 0
    while done < len(spans):
        stop, lines = done, 0
        while stop < len(spans) and lines < _CHUNK_LINES:
            lines += sizes[stop]
            stop += 1
        trees, problems, line_error = _read_chunk(
            text, spans[done:stop], sizes[done:stop], provenance, strings, table)
        # The sentence the scan's error cuts short is not reported; a bad
        # line ends the chunk in front of it.
        whole = len(trees) - (line_error is None and cut and stop == len(spans))
        yield from _in_order(trees, problems, spans[done:done + whole], provenance,
                             number, seen)
        if line_error is not None:
            for span in spans[done + len(trees) + 1:]:
                if span.generated:
                    counter[span.doc_id] -= 1
            error = line_error
            break
        done = stop
    if error is not None:
        yield _format_problem(error)


def _sentences(
    sources: Iterable[tuple[str | bytes | Path, str]]
) -> Iterator[_Read | _Problem]:
    """The one sentence loop: every check of every sentence of every source.

    ``sources`` holds (source, provenance) pairs, read through
    :func:`read_text`.  Sentence ids are unique per document across all
    sources, and generated ids number on across them.  A line that cannot
    be read ends its source; a bad sentence does not hide the next.  All
    sources share one string table.
    """
    seen: dict[tuple[str, str], tuple[int, str, int]] = {}
    counter: dict[str, int] = {}  # the generated ids each document has taken
    strings = sorted(MISSING_LEMMAS)  # so that a lemma id below 2 is missing
    table = {s: i for i, s in enumerate(strings)}
    for number, (source, provenance) in enumerate(sources):
        try:
            text = read_text(source, provenance)
        except CorpusFormatError as exc:
            yield _format_problem(exc)
            continue
        yield from _read_source(text, provenance, number, seen, counter, strings, table)


def _parse(sources: Sequence[tuple[str | bytes | Path, str]]) -> list[CorpusSlice]:
    """Trees of every source grouped by century; the first problem raises."""
    parts = []
    for item in _sentences(sources):
        if isinstance(item, _Problem):
            raise item.error
        parts.append(item.trees)
    if not parts:
        return []
    trees = _TreeColumns.concat(parts)
    return [
        CorpusSlice(century=c, trees=trees.take(np.flatnonzero(trees.century == c)))
        for c in sorted(set(trees.century.tolist()))
    ]


def _unwritable_lemmas(read: _Read, checked: set[int]) -> list[CorpusIssue]:
    """An issue at the first token of each lemma GraphML cannot carry, in
    line order; ``checked`` holds the string ids already looked at."""
    trees = read.trees
    lemmas, first = np.unique(trees.lemma, return_index=True)
    fresh = [(row, trees.strings[i])
             for i, row in zip(lemmas.tolist(), first.tolist()) if i not in checked]
    checked.update(lemmas.tolist())
    sentence = _sentence_of(trees.offsets)
    return [
        CorpusIssue(read.provenance, int(trees.line[row]), trees.sentence_id[sentence[row]],
                    "unwritable lemma", f"lemma {lemma!r} holds {found.group()!r}, "
                    "which GraphML (XML 1.0) cannot carry")
        for row, lemma in sorted(fresh) if (found := _NOT_XML(lemma))
    ]


def audit_corpus(
    sources: Iterable[tuple[str | bytes | Path, str]],
    policy: MissingPolicy | str | None = None,
    graphml: bool = False,
) -> list[CorpusIssue]:
    """Every problem of the (source, provenance) pairs ``sources``, where
    :func:`load_corpus` raises the first; a source is a file (a ``Path``),
    bytes or a string, as :func:`read_text` takes it.

    A line that cannot be read ends the audit of its source, since the rest
    cannot be interpreted reliably; a bad sentence does not hide the next.
    With a missing ``policy`` the audit is the whole pipeline's, as ``asnkit
    validate`` prints it: after each run of readable sentences, those the
    policy cannot judge and, if ``graphml``, each lemma GraphML cannot carry
    in those it keeps; at the end, an empty corpus and each century the
    policy leaves empty.
    """
    issues, checked, centuries, left = [], set(), set(), set()
    for item in _sentences(sources):
        if isinstance(item, _Problem):
            issues += item.issues
        elif policy is not None:
            trees, verdicts = item.trees, _Verdicts(item.trees, policy)
            issues += [
                CorpusIssue(item.provenance, int(trees.line[trees.offsets[i]]),
                            trees.sentence_id[i], "missing policy",
                            verdicts.unjudged_reason(i))
                for i in np.flatnonzero(verdicts.unjudged).tolist()
            ]
            centuries.update(trees.century.tolist())
            left.update(trees.century[verdicts.keep | verdicts.unjudged].tolist())
            if graphml:
                kept = trees.take(np.flatnonzero(verdicts.keep))
                issues += _unwritable_lemmas(item._replace(trees=kept), checked)
    if policy is None:
        return issues
    if not issues and not centuries:  # not even a bad sentence
        issues.append(CorpusIssue(None, None, None, "empty corpus", "no sentences found"))
    policy = MissingPolicy.from_name(policy)
    return issues + [
        CorpusIssue(None, None, None, "empty corpus",
                    f"century {c} has no sentences left under policy {policy.value!r}")
        for c in sorted(centuries - left)
    ]


def load_corpus(paths: str | Path | Iterable[str | Path]) -> list[CorpusSlice]:
    """Parse one or more treebank files and merge their slices by century."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    return _parse([(Path(p), str(p)) for p in paths])
