"""The ranked input list of NRA (No Random Access) top-k aggregation.

Fagin's NRA algorithm merges several ranked lists, each mapping items to
partial scores sorted in descending score order, into the top-k items by
*sum* of partial scores -- reading the lists strictly sequentially (no random
access by item).  P3Q's querier-side merging (Algorithm 4,
:class:`~repro.topk.incremental.IncrementalNRA`) is an incremental
adaptation of this algorithm; its oracle is :mod:`repro.topk.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class RankedList:
    """One input list: ``(item, score)`` pairs sorted by descending score."""

    list_id: int
    entries: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        scores = [score for _, score in self.entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValueError("RankedList entries must be sorted by descending score")

    @classmethod
    def from_scores(cls, list_id: int, scores: Dict[int, float]) -> "RankedList":
        """Build a ranked list from an item -> score map, dropping zeros."""
        entries = tuple(
            sorted(
                ((item, score) for item, score in scores.items() if score > 0),
                key=lambda pair: (-pair[1], pair[0]),
            )
        )
        return cls(list_id=list_id, entries=entries)

