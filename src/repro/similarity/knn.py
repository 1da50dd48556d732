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
from array import array
from collections import Counter, defaultdict
from itertools import chain
from typing import Dict, List, Tuple

from ..data.models import Dataset

#: Id bits of a packed ``(-count << 32) | id`` key and the largest ``array("i")`` id.
_ID_MASK = (1 << 31) - 1


class IdealNetworkIndex:
    """Offline computation of every user's ideal personal network.

    ``size`` is the paper's parameter ``s``: the personal network keeps the
    ``s`` users with the highest *positive* similarity score.  Users with a
    zero score never qualify, so an ideal network can legitimately hold fewer
    than ``s`` neighbours.  The score is the paper's overlap
    (:func:`~repro.similarity.metrics.overlap_score`).  A network is two
    columns in rank order, an ``array("i")`` of ids and a tuple of scores.
    """

    def __init__(self, dataset: Dataset, size: int) -> None:
        if size <= 0:
            raise ValueError("personal network size must be positive")
        for user_id in dataset.user_ids:
            if not 0 <= user_id <= _ID_MASK:
                raise ValueError(f"user id {user_id} is outside [0, 2**31)")
        self.dataset = dataset
        self.size = size
        self._ids: Dict[int, array] = {}
        self._scores: Dict[int, Tuple[float, ...]] = {}
        self._build_from_inverted_index()

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
        # One float object per overlap count, shared by the index.
        longest = max((len(profile.action_ids) for profile in self.dataset.profiles()), default=0)
        score_of = [float(count) for count in range(longest + 1)]
        for profile in self.dataset.profiles():
            user_id = profile.user_id
            counts = Counter(
                chain.from_iterable(postings[action_id] for action_id in profile.action_ids)
            )
            counts.pop(user_id, None)
            # Packed key: descending count, then ascending id, as one int.
            best = heapq.nsmallest(
                size, [(-count << 32) | other for other, count in counts.items()]
            )
            self._ids[user_id] = array("i", [key & _ID_MASK for key in best])
            self._scores[user_id] = tuple([score_of[-(key >> 32)] for key in best])

    # -- queries --------------------------------------------------------------

    def neighbour_ids(self, user_id: int) -> List[int]:
        return self._ids[user_id].tolist()

    def neighbour_scores(self, user_id: int) -> Tuple[float, ...]:
        """The scores of :meth:`neighbour_ids`, position for position."""
        return self._scores[user_id]
