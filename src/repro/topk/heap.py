"""Candidate bookkeeping for NRA-style top-k processing.

NRA (No Random Access) maintains, for every item seen so far, a *worst-case*
score (assume the item is absent from every list where it has not yet been
seen) and a *best-case* score (assume its score in those lists equals the
last value read from them).  Candidates are ordered by worst-case score,
ties broken by best-case score, and the algorithm can stop as soon as no
candidate outside the current top-k can possibly beat the k-th worst-case
score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Candidate:
    """One item tracked by the NRA candidate heap."""

    item: int
    #: Sum of the scores actually seen for this item, per source list id.
    seen_scores: Dict[int, float] = field(default_factory=dict)

    def worst_case(self) -> float:
        """Pessimistic score: unseen lists contribute nothing."""
        return sum(self.seen_scores.values())

    def best_case(self, last_seen: Dict[int, float]) -> float:
        """Optimistic score: unseen lists contribute their last-seen value.

        ``last_seen`` maps list id -> the score at the current scan position
        of that list (0 once a list is exhausted).
        """
        total = self.worst_case()
        for list_id, bound in last_seen.items():
            if list_id not in self.seen_scores:
                total += bound
        return total


class CandidateHeap:
    """The candidate set of an NRA run.

    The structure is deliberately a sorted-on-demand dict rather than an
    actual binary heap: both best- and worst-case scores of *every*
    candidate change when any list advances, so a heap would be re-built
    each step anyway.  The paper notes the same simplification
    ("not re-ranking the candidate heap once an item is modified" is listed
    as an optimization out of scope).
    """

    def __init__(self) -> None:
        self._candidates: Dict[int, Candidate] = {}

    def observe(self, item: int, list_id: int, score: float) -> None:
        """Record that ``item`` was seen in list ``list_id`` with ``score``."""
        candidate = self._candidates.get(item)
        if candidate is None:
            candidate = Candidate(item)
            self._candidates[item] = candidate
        candidate.seen_scores[list_id] = score

    def ranked(self, last_seen: Dict[int, float]) -> List[Tuple[int, float, float]]:
        """Candidates as ``(item, worst_case, best_case)`` in NRA order.

        Ordering: descending worst-case, then descending best-case, then item
        id for determinism.
        """
        rows = [
            (c.item, c.worst_case(), c.best_case(last_seen))
            for c in self._candidates.values()
        ]
        rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
        return rows

    def top_k(self, k: int, last_seen: Dict[int, float]) -> List[Tuple[int, float]]:
        """Current top-k as ``(item, worst_case_score)``."""
        return [(item, worst) for item, worst, _ in self.ranked(last_seen)[:k]]

    def is_confident(self, k: int, last_seen: Dict[int, float]) -> bool:
        """NRA stop condition.

        True when the k-th candidate's worst-case score is at least the
        best-case score of every object outside the current top-k -- both the
        candidates already seen and the *unseen* objects, whose best possible
        score is the sum of the last-seen values over all lists (the classical
        NRA threshold).  With fewer than k candidates the answer cannot be
        confident unless every list is exhausted (``last_seen`` all zero),
        which the caller checks.
        """
        ranked = self.ranked(last_seen)
        if len(ranked) < k:
            return False
        kth_worst = ranked[k - 1][1]
        unseen_best = sum(last_seen.values())
        if unseen_best > kth_worst:
            return False
        for _, _, best in ranked[k:]:
            if best > kth_worst:
                return False
        return True
