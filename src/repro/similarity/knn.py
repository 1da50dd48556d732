"""Exact (offline) k-nearest-neighbour computation over tagging profiles.

The paper's convergence metric (Fig. 2, Fig. 10) compares the personal
network a node has discovered through gossip with the *ideal* personal
network computed offline "using the global information about all users'
profiles".  This module computes that ideal network.

A brute-force all-pairs intersection is O(|U|^2) profile intersections; to
keep paper-like scales reachable, the computation goes through an inverted
index from tagging action to users, so only user pairs that actually share
at least one action are ever scored (the score of every other pair is zero
and never qualifies as a positive-score neighbour).  The index is keyed by
*interned* action ids (:mod:`repro.data.interning`): hashing a small int per
posting instead of an ``(item, tag)`` tuple keeps the index build cheap at
paper scale.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence

from ..data.models import Dataset
from .metrics import SimilarityFunction, overlap_score


@dataclass(frozen=True, slots=True)
class Neighbour:
    """A scored neighbour in an (ideal or discovered) personal network."""

    user_id: int
    score: float

    def __lt__(self, other: "Neighbour") -> bool:  # deterministic ordering
        return (self.score, -self.user_id) < (other.score, -other.user_id)


class IdealNetworkIndex:
    """Offline computation of every user's ideal personal network.

    ``size`` is the paper's parameter ``s``: the personal network keeps the
    ``s`` users with the highest *positive* similarity score.  Users with a
    zero score never qualify, so an ideal network can legitimately hold fewer
    than ``s`` neighbours.
    """

    def __init__(
        self,
        dataset: Dataset,
        size: int,
        metric: SimilarityFunction = overlap_score,
    ) -> None:
        if size <= 0:
            raise ValueError("personal network size must be positive")
        self.dataset = dataset
        self.size = size
        self.metric = metric
        self._networks: Dict[int, List[Neighbour]] = {}
        self._build()

    def _build(self) -> None:
        if self.metric is overlap_score:
            self._build_from_inverted_index()
        else:
            self._build_brute_force()

    def _build_from_inverted_index(self) -> None:
        # One pass per user over the posting lists of her own actions: the
        # multiset of users met there is her overlap count with each of
        # them.  Only one user's counts are alive at a time -- never a
        # global (user, user) table, which is quadratic in the size of
        # every popular action's posting list.
        postings: Dict[int, List[int]] = defaultdict(list)
        for profile in self.dataset.profiles():
            user_id = profile.user_id
            for action_id in profile.action_ids:
                postings[action_id].append(user_id)
        size = self.size
        # One float object per distinct overlap count, shared by the index.
        score_of: Dict[int, float] = {}
        for profile in self.dataset.profiles():
            user_id = profile.user_id
            counts = Counter(
                chain.from_iterable(postings[action_id] for action_id in profile.action_ids)
            )
            counts.pop(user_id, None)
            best = heapq.nsmallest(
                size, counts.items(), key=lambda pair: (-pair[1], pair[0])
            )
            self._networks[user_id] = [
                Neighbour(other, score_of.setdefault(count, float(count)))
                for other, count in best
            ]

    def _build_brute_force(self) -> None:
        user_ids = self.dataset.user_ids
        for user_id in user_ids:
            profile = self.dataset.profile(user_id)
            scored = [
                Neighbour(other, self.metric(profile, self.dataset.profile(other)))
                for other in user_ids
                if other != user_id
            ]
            scored = [n for n in scored if n.score > 0]
            scored.sort(key=lambda n: (-n.score, n.user_id))
            self._networks[user_id] = scored[: self.size]

    # -- queries --------------------------------------------------------------

    def network_of(self, user_id: int) -> List[Neighbour]:
        """The ideal personal network of a user (descending score)."""
        return list(self._networks[user_id])

    def neighbour_ids(self, user_id: int) -> List[int]:
        return [n.user_id for n in self._networks[user_id]]

    def top_c_ids(self, user_id: int, c: int) -> List[int]:
        """The ``c`` highest-scored ideal neighbours (stored-profile set)."""
        return [n.user_id for n in self._networks[user_id][:c]]

    def score(self, user_id: int, other: int) -> float:
        for neighbour in self._networks[user_id]:
            if neighbour.user_id == other:
                return neighbour.score
        return 0.0

    def success_ratio(self, user_id: int, discovered_ids: Sequence[int]) -> float:
        """Fraction of the ideal network present in ``discovered_ids``.

        This is the paper's per-user convergence metric.  A user with an
        empty ideal network (no positive-score peer) trivially has ratio 1.
        """
        ideal = set(self.neighbour_ids(user_id))
        if not ideal:
            return 1.0
        discovered = set(discovered_ids)
        return len(ideal & discovered) / len(ideal)

    def average_success_ratio(self, discovered: Dict[int, Sequence[int]]) -> float:
        """Average success ratio over all users in the dataset (Fig. 2)."""
        ratios = [
            self.success_ratio(user_id, discovered.get(user_id, ()))
            for user_id in self.dataset.user_ids
        ]
        return sum(ratios) / len(ratios) if ratios else 1.0
