"""Century-by-century evolution of the top of the syntactic hierarchy.

Per-century networks are compared through level ranks, which
:func:`~asnkit.hierarchy.hierarchy_levels` solves with the levels
(``HierarchyLevels.rank``): position 1 is the node with the smallest forward
level (the top of the hierarchy), ties broken by outgoing weight and then
(role, lemma).  Trajectories expose the rank and frequency history of chosen
nodes; emergence detection flags nodes that jump into the top band after
having been absent or far below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hierarchy import HierarchyLevels, _check_aligned
from .network import Asn, NodeKey

__all__ = [
    "TrajectoryPoint",
    "HeadTrajectory",
    "EmergenceEvent",
    "track",
    "detect_emergent_heads",
]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One node's standing in one century's network."""

    century: int
    present: bool
    level: float | None
    level_rank: int | None
    frequency: int
    is_head: bool


@dataclass(frozen=True)
class HeadTrajectory:
    """Rank/frequency history of one node across the series."""

    key: NodeKey
    points: tuple[TrajectoryPoint, ...]


@dataclass(frozen=True)
class EmergenceEvent:
    """A node entering the top band of the hierarchy.

    ``prior_rank`` is ``None`` when the node was absent from the previous
    century's network.
    """

    key: NodeKey
    century: int
    prior_rank: int | None
    new_rank: int


def _validate_slices(
    slices: Sequence[tuple[Asn, HierarchyLevels]]
) -> list[int]:
    """The series' centuries, after the checks that every reader shares."""
    centuries: list[int] = []
    for asn, levels in slices:
        _check_aligned(asn, levels)
        if asn.century is None:
            raise ValueError("every network in a series needs a century")
        centuries.append(asn.century)
    if any(b <= a for a, b in zip(centuries, centuries[1:])):
        raise ValueError(
            f"networks must be ordered by strictly increasing century, "
            f"got {centuries}"
        )
    return centuries


def track(
    keys: Iterable[NodeKey], slices: Sequence[tuple[Asn, HierarchyLevels]]
) -> list[HeadTrajectory]:
    """Follow chosen nodes through the series.

    For every century a node is present in, the trajectory records its
    forward level, its level rank, its token frequency, and whether it is a
    head (no in-neighbours).  Absent centuries yield placeholder points with
    ``present=False`` and frequency 0, keeping trajectories aligned.
    """
    centuries = _validate_slices(slices)
    no_in = [asn.in_weight() == 0 for asn, _levels in slices]

    trajectories = []
    for key in keys:
        points = []
        for i, (asn, levels) in enumerate(slices):
            node = asn.index.get(key)
            absent = node is None
            points.append(
                TrajectoryPoint(
                    century=centuries[i],
                    present=not absent,
                    level=None if absent else float(levels.forward[node]),
                    level_rank=None if absent else int(levels.rank[node]),
                    frequency=0 if absent else int(asn.frequency[node]),
                    is_head=not absent and bool(no_in[i][node]),
                )
            )
        trajectories.append(HeadTrajectory(key=key, points=tuple(points)))
    return trajectories


def detect_emergent_heads(
    slices: Sequence[tuple[Asn, HierarchyLevels]],
    band: int = 10,
    min_gain: int = 5,
) -> list[EmergenceEvent]:
    """Flag nodes that newly enter the top ``band`` of the level ranking.

    A node emerges at the earliest century where its rank is within the top
    band while in the previous century it was either absent or ranked at
    least ``band + min_gain`` (the gain margin keeps rank jitter around the
    band boundary from raising events).  Presence in the first slice is
    baseline, not emergence, so a series of identical slices yields no
    events.  One event is reported per node; events are ordered by century,
    then new rank, then node key.
    """
    if band < 1:
        raise ValueError(f"band must be >= 1, got {band}")
    if min_gain < 0:
        raise ValueError(f"min_gain must be >= 0, got {min_gain}")
    centuries = _validate_slices(slices)
    ranks = [levels.rank for _asn, levels in slices]

    events = []
    flagged: set[NodeKey] = set()
    for i in range(1, len(slices)):
        asn, prev = slices[i][0], slices[i - 1][0]
        for node in np.flatnonzero(ranks[i] <= band).tolist():
            key = asn.keys[node]
            if key in flagged:
                continue
            before = prev.index.get(key)
            prior = None if before is None else int(ranks[i - 1][before])
            if prior is None or prior >= band + min_gain:
                events.append(
                    EmergenceEvent(
                        key=key,
                        century=centuries[i],
                        prior_rank=prior,
                        new_rank=int(ranks[i][node]),
                    )
                )
                flagged.add(key)
    events.sort(key=lambda e: (e.century, e.new_rank, e.key.sort_key))
    return events
