"""Seeded synthetic inputs for the benchmark, built without asnkit.

Treebanks are random recursive trees whose tokens are drawn from a Zipf
ranked multiset of (lemma, role) nodes.  The multiset itself and the sentence
length multiset are fixed by the size parameters, and the seed only permutes
tokens over positions and draws the tree shapes.  Input size therefore does
not move with the seed, so timing differences between seeds come from the
program and not from a bigger or smaller corpus.

Every corpus also carries two planted features:

* missing-annotation sentences for the target lemma ``werden``, some with the
  sentinel attached to the target (dropped by the default policy) and some
  with it attached elsewhere (kept);
* a head, ``MV planthead``, absent from the first centuries, that roots many
  sentences from its planted century on and so enters the top of the level
  ranking there.

The generator keeps its own tallies (sentences kept and dropped, distinct
nodes and edges, non-root tokens) so the benchmark can check asnkit's
results against numbers asnkit did not compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

#: Ten role codes of the annotation scheme, cycled over node ranks.
ROLES = ("N", "V", "AR", "PR", "AJ", "AD", "PP", "MV", "IV", "CJ")

TARGET = ("werden", "AX")
PLANTED = ("planthead", "MV")

#: Planted missing-annotation sentences per century.  Adjacent ones put the
#: sentinel under the target lemma, distant ones under another token.
_ADJACENT = (("werden", "AX", 0), ("unbekannt", "_", 1), ("man", "N", 1))
_DISTANT = (("werden", "AX", 0), ("man", "N", 1), ("!", "_", 2))

#: Children of each planted-head sentence, taken from the Zipf stream.
_PLANTED_CHILDREN = 3

Node = tuple[str, str]
Tree = list[tuple[str, str, int]]


@dataclass(frozen=True)
class CenturyTally:
    """Counts the generator knows by construction for one century."""

    century: int
    kept: int
    dropped: int
    nodes: int
    edges: int
    weight: int


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def zipf_counts(total: int, vocab: int, exponent: float) -> np.ndarray:
    """Largest-remainder rounding of ``total`` tokens over Zipf ranks."""
    weights = 1.0 / np.arange(1, vocab + 1, dtype=np.float64) ** exponent
    share = total * weights / weights.sum()
    counts = np.floor(share).astype(np.int64)
    rest = total - int(counts.sum())
    order = np.argsort(-(share - counts), kind="stable")
    counts[order[:rest]] += 1
    return counts


def node_name(rank: int) -> tuple[str, str]:
    """Lemma and role of the node at a Zipf rank; lemmas span three roles."""
    return f"l{rank // 3}", ROLES[rank % len(ROLES)]


def _century_trees(
    rng: np.random.Generator,
    sentences: int,
    vocab: int,
    exponent: float,
    planted: int,
    adjacent: int,
    distant: int,
) -> tuple[list[Tree], list[Tree]]:
    """Kept trees, and all trees in file order with the dropped ones mixed in."""
    order = rng.permutation(3 + np.arange(sentences) % 22)
    stream_size = int(order.sum()) + _PLANTED_CHILDREN * planted
    counts = zipf_counts(stream_size, vocab, exponent)
    stream = rng.permutation(np.repeat(np.arange(vocab), counts))

    kept: list[Tree] = []
    cursor = 0
    for length in order:
        ranks = stream[cursor:cursor + length]
        cursor += length
        heads = [0] + [int(rng.integers(1, j)) for j in range(2, length + 1)]
        kept.append([(*node_name(int(r)), h) for r, h in zip(ranks, heads)])
    for _ in range(planted):
        ranks = stream[cursor:cursor + _PLANTED_CHILDREN]
        cursor += _PLANTED_CHILDREN
        kept.append([(*PLANTED, 0)] + [(*node_name(int(r)), 1) for r in ranks])
    kept += [list(_DISTANT)] * distant

    slots = len(kept) + adjacent
    dropped_at = set(rng.choice(slots, adjacent, replace=False).tolist())
    source = iter(kept)
    ordered = [list(_ADJACENT) if s in dropped_at else next(source) for s in range(slots)]
    return kept, ordered


def _edges(trees: list[Tree]) -> set[tuple[Node, Node]]:
    return {
        ((tree[head - 1][0], tree[head - 1][1]), (lemma, role))
        for tree in trees
        for lemma, role, head in tree
        if head
    }


def zipf_corpus(
    seed: int,
    centuries: tuple[int, ...],
    sentences: int,
    vocab: int,
    planted_from: int,
    planted_sentences: int,
    adjacent: int,
    distant: int,
    exponent: float = 1.1,
    tag: int = 0,
) -> tuple[str, list[CenturyTally]]:
    """Treebank text and per-century tallies for one seeded Zipf corpus.

    Sentence lengths cycle through 3..24 tokens.  ``planted_from`` is the
    index (into ``centuries``) of the first century holding the planted head.
    """
    blocks: list[str] = []
    tallies: list[CenturyTally] = []
    for pos, century in enumerate(centuries):
        planted = planted_sentences if pos >= planted_from else 0
        kept, ordered = _century_trees(
            _rng(seed, tag, pos), sentences, vocab, exponent,
            planted, adjacent, distant,
        )
        tallies.append(
            CenturyTally(
                century=century,
                kept=len(kept),
                dropped=adjacent,
                nodes=len({(lemma, role) for tree in kept for lemma, role, _ in tree}),
                edges=len(_edges(kept)),
                weight=sum(1 for tree in kept for *_, head in tree if head),
            )
        )
        blocks.append(
            f"# century = {century}\n# doc_id = zipf{century}\n"
            f"# target = {TARGET[0]}"
        )
        blocks.append("\n\n".join(_render(tree) for tree in ordered))
    return "\n\n".join(blocks) + "\n", tallies


def zipf_degrees(
    seed: int, sentences: int, vocab: int, exponent: float = 1.1, tag: int = 0
) -> np.ndarray:
    """Total degrees of one Zipf slice's directed simple graph, zeros dropped.

    A self-loop adds one to both the in- and the out-degree of its node, as
    in asnkit's degree sequences.
    """
    kept, _ = _century_trees(_rng(seed, tag, 0), sentences, vocab, exponent, 0, 0, 0)
    degree: dict[Node, int] = {}
    for u, v in _edges(kept):
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return np.array(sorted(degree.values()), dtype=np.int64)


def _render(tree: list[tuple[str, str, int]]) -> str:
    return "\n".join(
        f"{i}\t{lemma}\t{lemma}\t{role}\t{head}\t_"
        for i, (lemma, role, head) in enumerate(tree, start=1)
    )


def powerlaw_sample(seed: int, alpha: float, xmin: int, size: int, tag: int) -> np.ndarray:
    """Discrete power law by inverse-CDF lookup on scipy's Hurwitz zeta."""
    u = _rng(seed, tag).random(size)
    # A draw beyond 2**22 has probability below 1e-9 at alpha = 2.5.
    grid = np.arange(xmin, xmin + (1 << 22), dtype=np.float64)
    cdf = np.cumsum(grid ** -alpha) / zeta(alpha, xmin)
    if u.max() >= cdf[-1]:
        raise ValueError("a draw lies beyond the inverse-CDF table")
    return (xmin + np.searchsorted(cdf, u, side="right")).astype(np.int64)


def lognormal_sample(
    seed: int, mean: float, sigma: float, size: int, tag: int
) -> np.ndarray:
    """Rounded lognormal draws, floored at 1: a power-law lookalike."""
    raw = _rng(seed, tag).lognormal(mean=mean, sigma=sigma, size=size)
    return np.maximum(np.rint(raw).astype(np.int64), 1)
