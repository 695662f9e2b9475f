"""Corpus model: grammatical roles, tokens, dependency trees, and treebank I/O.

A corpus is a set of manually annotated sentences.  Every sentence is a
dependency tree: one root token points to head 0, every other token points to
exactly one head inside the sentence, and every token is reachable from the
root.  Trees carry the century they were written in so that downstream
aggregation can build one network per century.

The on-disk format is a plain-text treebank: ``# key = value`` header lines
set metadata for the sentences that follow, sentences are separated by blank
lines, and each token line has exactly six tab-separated columns::

    INDEX<TAB>SURFACE<TAB>LEMMA<TAB>ROLE<TAB>HEAD<TAB>RULE

``RULE`` may be ``_`` to request classification from the head token's role.
Missing annotations in the sources are marked by the sentinel lemmas ``!`` or
``unbekannt``; only such tokens may carry ``_`` in the ROLE column.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

__all__ = [
    "GrammaticalRole",
    "PRONOUN_ROLES",
    "VERB_ROLES",
    "PHRASE_RULES",
    "MISSING_LEMMAS",
    "classify_phrase_rule",
    "Token",
    "TreeViolation",
    "TreeValidationError",
    "tree_violations",
    "validate_tree",
    "DependencyTree",
    "tree_depth",
    "CorpusSlice",
    "MissingPolicy",
    "FilterDecision",
    "filter_missing",
    "filter_slice",
    "CorpusFormatError",
    "CorpusIssue",
    "audit_corpus",
    "parse_corpus",
    "load_corpus",
    "render_corpus",
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
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown grammatical role code {code!r}") from None

    @property
    def code(self) -> str:
        return self.value


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


def classify_phrase_rule(head_role: GrammaticalRole) -> str:
    """Classify the phrase a dependency belongs to from its head's role.

    Nominal phrases are headed by a noun or a pronoun, verbal phrases by a
    verb form, prepositional phrases by a preposition.  Every other head role
    falls into the containment tag ``OTHER``.  Total function: never raises.
    """
    if head_role is GrammaticalRole.NOUN or head_role in PRONOUN_ROLES:
        return "NP"
    if head_role in VERB_ROLES:
        return "VP"
    if head_role is GrammaticalRole.PREPOSITION:
        return "PP"
    return "OTHER"


@dataclass(frozen=True)
class Token:
    """One annotated token of a sentence.

    ``index`` is 1-based within the sentence; ``head`` is the index of the
    token's head, with 0 reserved for the root.  ``role`` is ``None`` only
    for tokens whose annotation is missing in the source (``missing=True``
    and the lemma is a sentinel).
    """

    index: int
    surface: str
    lemma: str
    role: GrammaticalRole | None
    head: int
    rule: str = "OTHER"
    missing: bool = False

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise ValueError(f"token head must be >= 0, got {self.head}")
        if self.head == self.index:
            raise ValueError(f"token {self.index} cannot be its own head")
        if self.rule not in PHRASE_RULES:
            raise ValueError(f"invalid phrase rule {self.rule!r}")
        if self.missing and self.lemma not in MISSING_LEMMAS:
            raise ValueError(
                f"missing token {self.index} must use a sentinel lemma, "
                f"got {self.lemma!r}"
            )
        if self.role is None and not self.missing:
            raise ValueError(
                f"token {self.index} has no role but is not marked missing"
            )


@dataclass(frozen=True)
class TreeViolation:
    """One violated tree constraint, pointing at the offending token."""

    constraint: str
    token_index: int | None
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" at token {self.token_index}" if self.token_index else ""
        return f"{self.constraint}{where}: {self.message}"


class TreeValidationError(ValueError):
    """Raised when a token sequence does not form a valid dependency tree."""

    def __init__(self, sentence_id: str, violations: Sequence[TreeViolation]):
        self.sentence_id = sentence_id
        self.violations = tuple(violations)
        details = "; ".join(str(v) for v in violations)
        super().__init__(f"sentence {sentence_id!r} is not a tree: {details}")


def tree_violations(tokens: Sequence[Token]) -> list[TreeViolation]:
    """Check the tree constraints and report every violation found.

    The constraints: exactly one token has head 0; every head pointer stays
    inside the sentence; no token is its own ancestor (head pointers are
    acyclic, which together with single-headedness makes every token
    reachable from the root).  Token indices are assumed contiguous 1..n.
    """
    n = len(tokens)
    violations: list[TreeViolation] = []

    roots = [t.index for t in tokens if t.head == 0]
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
    for t in tokens:
        if t.head > n:
            violations.append(
                TreeViolation(
                    "head out of range",
                    t.index,
                    f"head {t.head} exceeds sentence length {n}",
                )
            )
        else:
            in_range[t.index] = t.head

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


@dataclass(frozen=True)
class DependencyTree:
    """A validated dependency tree for one sentence.

    Build instances through :func:`validate_tree`, which enforces the tree
    constraints; direct construction skips them.
    """

    sentence_id: str
    century: int
    tokens: tuple[Token, ...]
    doc_id: str = ""
    dialect: str | None = None
    target_lemma: str | None = None

    @property
    def root(self) -> Token:
        return next(t for t in self.tokens if t.head == 0)

    def children(self) -> dict[int, list[int]]:
        """Map each token index to the indices of its direct dependents."""
        out: dict[int, list[int]] = {t.index: [] for t in self.tokens}
        for t in self.tokens:
            if t.head != 0:
                out[t.head].append(t.index)
        return out


def validate_tree(
    tokens: Sequence[Token],
    sentence_id: str,
    century: int,
    doc_id: str = "",
    dialect: str | None = None,
    target_lemma: str | None = None,
) -> DependencyTree:
    """Validate the tree constraints and assemble a :class:`DependencyTree`.

    Raises
    ------
    ValueError
        If token indices are not contiguous 1..n (caller contract).
    TreeValidationError
        If any tree constraint is violated; the exception carries the full
        list of violations, each naming the constraint and offending token.
    """
    if not tokens:
        raise ValueError(f"sentence {sentence_id!r} has no tokens")
    if [t.index for t in tokens] != list(range(1, len(tokens) + 1)):
        raise ValueError(
            f"sentence {sentence_id!r}: token indices must be contiguous 1..n"
        )
    violations = tree_violations(tokens)
    if violations:
        raise TreeValidationError(sentence_id, violations)
    return DependencyTree(
        sentence_id=sentence_id,
        century=century,
        tokens=tuple(tokens),
        doc_id=doc_id,
        dialect=dialect,
        target_lemma=target_lemma,
    )


def tree_depth(tree: DependencyTree) -> int:
    """Length in edges of the longest root-to-leaf path."""
    children = tree.children()
    depth = 0
    stack = [(tree.root.index, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        for child in children[node]:
            stack.append((child, d + 1))
    return depth


@dataclass(frozen=True)
class CorpusSlice:
    """All validated trees of one century, in input order."""

    century: int
    trees: tuple[DependencyTree, ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for t in self.trees:
            if t.century != self.century:
                raise ValueError(
                    f"tree {t.sentence_id!r} has century {t.century}, "
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


@dataclass(frozen=True)
class FilterDecision:
    """Keep/drop verdict for one tree under a missing-annotation policy."""

    keep: bool
    reason: str


def filter_missing(tree: DependencyTree, policy: MissingPolicy) -> FilterDecision:
    """Decide whether a tree survives the given missing-annotation policy.

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
    if policy is MissingPolicy.KEEP_ALL:
        return FilterDecision(True, "policy keeps every tree")
    if policy is MissingPolicy.DROP_ANY:
        if missing:
            return FilterDecision(
                False, f"tree contains {len(missing)} missing annotation(s)"
            )
        return FilterDecision(True, "no missing annotations")

    # drop-adjacent-to-target
    if not missing:
        return FilterDecision(True, "no missing annotations")
    if tree.target_lemma is None:
        raise ValueError(
            f"sentence {tree.sentence_id!r}: policy "
            f"{policy.value!r} needs a target lemma to judge adjacency"
        )
    targets = [t for t in tree.tokens if t.lemma == tree.target_lemma]
    if not targets:
        raise ValueError(
            f"sentence {tree.sentence_id!r}: target lemma "
            f"{tree.target_lemma!r} does not occur, cannot judge adjacency"
        )
    for m in missing:
        for t in targets:
            if m.head == t.index or t.head == m.index:
                return FilterDecision(
                    False,
                    f"missing neighbor of target: token {m.index} is "
                    f"adjacent to {tree.target_lemma!r} at token {t.index}",
                )
    return FilterDecision(True, "missing annotations do not touch the target")


def filter_slice(
    corpus_slice: CorpusSlice, policy: MissingPolicy
) -> tuple[CorpusSlice, list[tuple[DependencyTree, FilterDecision]]]:
    """Apply a missing-annotation policy to every tree of a slice.

    Returns the surviving slice and the list of dropped trees with the
    decision that dropped them.
    """
    kept: list[DependencyTree] = []
    dropped: list[tuple[DependencyTree, FilterDecision]] = []
    for tree in corpus_slice.trees:
        decision = filter_missing(tree, policy)
        if decision.keep:
            kept.append(tree)
        else:
            dropped.append((tree, decision))
    new_slice = CorpusSlice(
        century=corpus_slice.century,
        trees=tuple(kept),
        provenance=corpus_slice.provenance,
    )
    return new_slice, dropped


class CorpusFormatError(ValueError):
    """Raised for malformed treebank input; carries source and line number."""

    def __init__(self, provenance: str, line: int, message: str):
        self.provenance = provenance
        self.line = line
        super().__init__(f"{provenance}:{line}: {message}")


@dataclass(frozen=True)
class CorpusIssue:
    """One problem found while auditing a treebank file."""

    provenance: str
    line: int
    sentence_id: str | None
    kind: str
    message: str

    def __str__(self) -> str:
        sent = f" sentence {self.sentence_id!r}" if self.sentence_id else ""
        return f"{self.provenance}:{self.line}:{sent} {self.kind}: {self.message}"


_HEADER_KEYS = ("century", "doc_id", "dialect", "target", "sent_id")


@dataclass
class _Draft:
    """One sentence as read from the file, before validation."""

    meta: dict
    sent_id: str
    first_line: int
    rows: list = field(default_factory=list)  # (line_no, Token-ready fields)


def _decode(source: str | bytes | TextIO) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _iter_drafts(text: str, provenance: str) -> Iterator[_Draft]:
    """Yield raw sentences with resolved metadata; structural errors raise."""
    meta: dict = {"century": None, "doc_id": "", "dialect": None, "target": None}
    pending_sent_id: str | None = None
    auto_counter: dict[str, int] = {}
    draft: _Draft | None = None

    def flush() -> Iterator[_Draft]:
        nonlocal draft
        if draft is not None:
            yield draft
            draft = None

    # Only "\n" ends a line: str.splitlines() would also break at U+2028,
    # U+0085 or a form feed, which are legal inside a lemma.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if line.startswith("## "):
            continue
        if not line.strip():
            yield from flush()
            continue
        if line.startswith("#"):
            if draft is not None:
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
                try:
                    meta["century"] = int(value)
                except ValueError:
                    raise CorpusFormatError(
                        provenance, line_no,
                        f"century must be an integer, got {value!r}",
                    ) from None
            elif key == "sent_id":
                pending_sent_id = value
            else:
                meta[key] = value
            continue

        # Token line.
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
                sent_id = pending_sent_id
                pending_sent_id = None
            draft = _Draft(meta=dict(meta), sent_id=sent_id, first_line=line_no)

        cols = line.split("\t")
        if len(cols) != 6:
            raise CorpusFormatError(
                provenance, line_no,
                f"expected 6 tab-separated columns, got {len(cols)}",
            )
        idx_s, surface, lemma, role_s, head_s, rule_s = cols
        try:
            idx = int(idx_s)
        except ValueError:
            raise CorpusFormatError(
                provenance, line_no, f"token index must be an integer, got {idx_s!r}"
            ) from None
        try:
            head = int(head_s)
        except ValueError:
            raise CorpusFormatError(
                provenance, line_no, f"head must be an integer, got {head_s!r}"
            ) from None
        if head < 0:
            raise CorpusFormatError(
                provenance, line_no, f"head must be >= 0, got {head}"
            )
        if idx != len(draft.rows) + 1:
            raise CorpusFormatError(
                provenance, line_no,
                f"token index {idx} is not contiguous "
                f"(expected {len(draft.rows) + 1})",
            )
        if not surface or not lemma:
            raise CorpusFormatError(
                provenance, line_no, "SURFACE and LEMMA must be non-empty"
            )
        missing = lemma in MISSING_LEMMAS
        if role_s == "_":
            if not missing:
                raise CorpusFormatError(
                    provenance, line_no,
                    "ROLE '_' is only allowed for missing-annotation lemmas",
                )
            role: GrammaticalRole | None = None
        else:
            try:
                role = GrammaticalRole.from_code(role_s)
            except ValueError as exc:
                raise CorpusFormatError(provenance, line_no, str(exc)) from None
        if rule_s != "_" and rule_s not in PHRASE_RULES:
            raise CorpusFormatError(
                provenance, line_no,
                f"RULE must be one of {', '.join(PHRASE_RULES)} or '_', "
                f"got {rule_s!r}",
            )
        draft.rows.append(
            (line_no, idx, surface, lemma, role, head, rule_s, missing)
        )

    yield from flush()


def _resolve_rules(draft: _Draft) -> list[str]:
    """Resolve '_' rule markers from each token's head role."""
    roles = {idx: role for (_, idx, _, _, role, _, _, _) in draft.rows}
    rules: list[str] = []
    for (_, _, _, _, _, head, rule_s, _) in draft.rows:
        if rule_s != "_":
            rules.append(rule_s)
        elif head in roles and roles[head] is not None:
            rules.append(classify_phrase_rule(roles[head]))
        else:
            # The root has no head to classify from; a missing or dangling
            # head cannot be classified either.
            rules.append("OTHER")
    return rules


def _draft_tokens(draft: _Draft, provenance: str) -> list[Token]:
    """Turn raw rows into Token objects; self-heads surface as format errors."""
    rules = _resolve_rules(draft)
    tokens: list[Token] = []
    for (line_no, idx, surface, lemma, role, head, _, missing), rule in zip(
        draft.rows, rules
    ):
        if head == idx:
            raise CorpusFormatError(
                provenance, line_no, f"token {idx} points at itself as head"
            )
        tokens.append(
            Token(
                index=idx,
                surface=surface,
                lemma=lemma,
                role=role,
                head=head,
                rule=rule,
                missing=missing,
            )
        )
    return tokens


def _group_slices(
    trees: list[DependencyTree], provenance: tuple[str, ...]
) -> list[CorpusSlice]:
    by_century: dict[int, list[DependencyTree]] = {}
    for tree in trees:
        by_century.setdefault(tree.century, []).append(tree)
    return [
        CorpusSlice(century=c, trees=tuple(by_century[c]), provenance=provenance)
        for c in sorted(by_century)
    ]


def parse_corpus(
    source: str | bytes | TextIO, provenance: str = "<input>"
) -> list[CorpusSlice]:
    """Parse a treebank into validated trees grouped by century.

    Returns one :class:`CorpusSlice` per century, in ascending century
    order; input order is preserved within each slice.

    Raises
    ------
    CorpusFormatError
        On malformed lines, unknown role codes or header keys, and duplicate
        sentence ids within a document (all with source line numbers).
    TreeValidationError
        When a sentence violates the tree constraints.
    """
    text = _decode(source)
    trees: list[DependencyTree] = []
    seen_ids: dict[tuple[str, str], int] = {}
    for draft in _iter_drafts(text, provenance):
        key = (draft.meta["doc_id"], draft.sent_id)
        if key in seen_ids:
            raise CorpusFormatError(
                provenance, draft.first_line,
                f"duplicate sentence id {draft.sent_id!r} in document "
                f"{draft.meta['doc_id']!r} (first seen at line {seen_ids[key]})",
            )
        seen_ids[key] = draft.first_line
        tokens = _draft_tokens(draft, provenance)
        trees.append(
            validate_tree(
                tokens,
                sentence_id=draft.sent_id,
                century=draft.meta["century"],
                doc_id=draft.meta["doc_id"],
                dialect=draft.meta["dialect"],
                target_lemma=draft.meta["target"],
            )
        )
    return _group_slices(trees, (provenance,))


def audit_corpus(
    source: str | bytes | TextIO, provenance: str = "<input>"
) -> list[CorpusIssue]:
    """Collect every problem in a treebank instead of stopping at the first.

    Structural line errors end the audit of the offending file (the rest
    cannot be interpreted reliably), but sentence-level tree violations are
    collected per sentence so one bad sentence does not hide the next.
    """
    text = _decode(source)
    issues: list[CorpusIssue] = []
    seen_ids: dict[tuple[str, str], int] = {}
    try:
        for draft in _iter_drafts(text, provenance):
            key = (draft.meta["doc_id"], draft.sent_id)
            if key in seen_ids:
                issues.append(
                    CorpusIssue(
                        provenance, draft.first_line, draft.sent_id,
                        "duplicate sentence id",
                        f"first seen at line {seen_ids[key]}",
                    )
                )
                continue
            seen_ids[key] = draft.first_line
            try:
                tokens = _draft_tokens(draft, provenance)
            except CorpusFormatError as exc:
                issues.append(
                    CorpusIssue(
                        provenance, exc.line, draft.sent_id,
                        "malformed token", str(exc).split(": ", 1)[1],
                    )
                )
                continue
            for violation in tree_violations(tokens):
                issues.append(
                    CorpusIssue(
                        provenance, draft.first_line, draft.sent_id,
                        violation.constraint, violation.message,
                    )
                )
    except CorpusFormatError as exc:
        issues.append(
            CorpusIssue(
                provenance, exc.line, None,
                "format error", str(exc).split(": ", 1)[1],
            )
        )
    return issues


def load_corpus(paths: str | Path | Iterable[str | Path]) -> list[CorpusSlice]:
    """Parse one or more treebank files and merge their slices by century."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    trees: list[DependencyTree] = []
    seen_ids: dict[tuple[str, str], str] = {}
    provenance: list[str] = []
    for path in paths:
        path = Path(path)
        provenance.append(str(path))
        with io.open(path, "r", encoding="utf-8") as handle:
            slices = parse_corpus(handle, provenance=str(path))
        for corpus_slice in slices:
            for tree in corpus_slice.trees:
                key = (tree.doc_id, tree.sentence_id)
                if key in seen_ids:
                    raise CorpusFormatError(
                        str(path), 0,
                        f"duplicate sentence id {tree.sentence_id!r} in "
                        f"document {tree.doc_id!r} (also in {seen_ids[key]})",
                    )
                seen_ids[key] = str(path)
                trees.append(tree)
    return _group_slices(trees, tuple(provenance))


def _header_line(tree: DependencyTree, key: str, value) -> str:
    text = str(value)
    if "\n" in text or text != text.strip():
        raise ValueError(
            f"sentence {tree.sentence_id!r}: header {key} = {text!r} cannot be "
            "written: a header value ends at a newline and loses surrounding "
            "whitespace"
        )
    return f"# {key} = {text}"


def render_corpus(slices: Iterable[CorpusSlice]) -> str:
    """Render slices back to the canonical treebank text.

    The canonical form spells out every rule tag, renders missing roles as
    ``_``, emits ``# sent_id`` before every sentence, and repeats the other
    headers only when their value changes.  ``render_corpus`` after
    :func:`parse_corpus` is byte-identical on canonical files.

    Raises
    ------
    ValueError
        For what the format cannot carry: a surface or lemma that is empty or
        holds a tab or newline, a header value with a newline or surrounding
        whitespace, or a dialect or target that is unset after a sentence
        that set it (headers carry over and cannot be cleared).
    """
    lines: list[str] = []
    prev: dict = {"century": None, "doc_id": "", "dialect": None, "target": None}
    first = True
    for corpus_slice in slices:
        for tree in corpus_slice.trees:
            if not first:
                lines.append("")
            first = False
            current = {
                "century": tree.century,
                "doc_id": tree.doc_id,
                "dialect": tree.dialect,
                "target": tree.target_lemma,
            }
            for key in ("century", "doc_id", "dialect", "target"):
                if current[key] == prev[key]:
                    continue
                if current[key] is None:
                    raise ValueError(
                        f"sentence {tree.sentence_id!r}: {key} cannot be unset "
                        f"after a sentence with {key} = {prev[key]!r}"
                    )
                lines.append(_header_line(tree, key, current[key]))
            prev = current
            lines.append(_header_line(tree, "sent_id", tree.sentence_id))
            for t in tree.tokens:
                for name, text in (("surface", t.surface), ("lemma", t.lemma)):
                    if not text or "\t" in text or "\n" in text:
                        raise ValueError(
                            f"sentence {tree.sentence_id!r}, token {t.index}: "
                            f"{name} {text!r} cannot be written: it must be "
                            "non-empty and hold no tab or newline"
                        )
                role = t.role.code if t.role is not None else "_"
                lines.append(
                    f"{t.index}\t{t.surface}\t{t.lemma}\t{role}\t{t.head}\t{t.rule}"
                )
    return "\n".join(lines) + "\n" if lines else ""
