"""Deterministic synthetic treebank generators for the tests.

These produce small, fully scripted corpora that exercise the pipeline
end-to-end: a modal-verb takeover where one head replaces another while
rank and frequency dissociate, and a cross-linking corpus whose later slices
share lemmas across sentences.  Everything is pure string construction; no
randomness.  Only the standard library is imported, so
``tools/bundle_diff.py`` reads these corpora without the test extras.
"""

from __future__ import annotations

from typing import Sequence

#: The four centuries both corpora span.
CENTURIES = (14, 15, 16, 17)


def _sentence(rows: Sequence[tuple[str, str, str, int]]) -> str:
    """Render token rows (surface, lemma, role, head) with computed rules."""
    lines = []
    for idx, (surface, lemma, role, head) in enumerate(rows, start=1):
        lines.append(f"{idx}\t{surface}\t{lemma}\t{role}\t{head}\t_")
    return "\n".join(lines)


# Small pools cycled with ``i % len(pool)``.  Every century's dominant modal
# has at least ``len(pool)`` sentences, so the subject and infinitive
# vocabulary is identical in every slice — the only lexical change across a
# takeover series is the modal itself.
_SUBJECT_NOUNS = ("man", "vrouwe", "kint", "herre")

_INFINITIVES = ("geben", "komen", "nemen", "riten")

#: Modal-verb sentence counts per slice position: the old modal fades while
#: the new one arrives two slices in.
_OLD_MODAL_COUNTS = (12, 10, 4, 2)
_NEW_MODAL_COUNTS = (0, 0, 8, 10)


def _cycled(i: int) -> tuple[str, str]:
    """Subject and infinitive for the i-th modal sentence of a slice."""
    return (
        _SUBJECT_NOUNS[i % len(_SUBJECT_NOUNS)],
        _INFINITIVES[i % len(_INFINITIVES)],
    )


def _modal_sentence(modal: str, noun: str, infinitive: str) -> str:
    return _sentence(
        [
            (noun, noun, "N", 2),
            (modal, modal, "MV", 0),
            (infinitive, infinitive, "IV", 2),
        ]
    )


def _auxiliary_sentences() -> list[str]:
    """Stable passive/auxiliary sentences rooted at the auxiliary."""
    participles = ("geborn", "genant", "gesehen", "gelobt", "gevraget", "gehoeret")
    pronouns = ("er", "si", "ez", "er", "si", "ez")
    out = []
    for pron, part in zip(pronouns, participles):
        out.append(
            _sentence(
                [
                    (pron, pron, "PP", 2),
                    ("wirt", "werden", "AX", 0),
                    (part, part, "PCPS", 2),
                ]
            )
        )
    return out


def _full_verb_sentences() -> list[str]:
    """Stable sentences rooted at a full verb, with articles under nouns."""
    out = []
    for subj, obj in (("man", "kint"), ("herre", "bote")):
        out.append(
            _sentence(
                [
                    ("der", "der", "AR", 2),
                    (subj, subj, "N", 3),
                    ("sihet", "sehen", "V", 0),
                    ("daz", "daz", "AR", 5),
                    (obj, obj, "N", 3),
                ]
            )
        )
    return out


def takeover_corpus() -> str:
    """Corpus where one modal verb takes over headship from another.

    Every century shares an identical stable core (auxiliary and full-verb
    sentences).  The old modal heads fewer and fewer sentences while staying
    a head; the new modal is absent from the first two slices and arrives in
    force at the third.  Rank and frequency therefore dissociate: the old
    modal's frequency collapses long before its rank leaves the top band.
    """
    blocks: list[str] = []
    for pos, century in enumerate(CENTURIES):
        blocks.append(f"# century = {century}\n# doc_id = takeover{century}")
        sentences = list(_auxiliary_sentences())
        sentences += _full_verb_sentences()
        for i in range(_OLD_MODAL_COUNTS[pos]):
            sentences.append(_modal_sentence("mogen", *_cycled(i)))
        for i in range(_NEW_MODAL_COUNTS[pos]):
            sentences.append(_modal_sentence("konnen", *_cycled(i)))
        blocks.append("\n\n".join(sentences))
    return "\n\n".join(blocks) + "\n"


def crosslink_corpus(chains: int = 5, depth: int = 4) -> str:
    """Chain sentences that start sharing lemmas in century 16.

    Before century 16 every sentence is a chain over its own vocabulary, so
    network diameter equals the maximum tree depth.  From century 16 onward
    each chain's leaf reuses the next chain's root lemma, welding the chains
    into one long path whose diameter far exceeds any tree depth.
    """
    blocks: list[str] = []
    for century in CENTURIES:
        blocks.append(f"# century = {century}\n# doc_id = chains{century}")
        sentences = []
        for c in range(chains):
            rows = []
            for j in range(depth + 1):
                lemma = f"k{c}w{j}"
                if century >= 16 and j == depth and c < chains - 1:
                    lemma = f"k{c + 1}w0"
                rows.append((lemma, lemma, "N", j))
            sentences.append(_sentence(rows))
        blocks.append("\n\n".join(sentences))
    return "\n\n".join(blocks) + "\n"
