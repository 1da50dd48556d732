"""Node-local views: the personal network and the random view.

Every P3Q user maintains (Figure 1 of the paper):

* a **personal network** of the ``s`` most similar users.  Each entry keeps
  the neighbour's id, similarity score, profile digest and a gossip
  timestamp; only the ``c`` highest-scored entries also keep a full local
  replica of the neighbour's profile;
* a **random view** of ``r`` users picked uniformly at random from the whole
  system, maintained by the peer-sampling layer, each with a profile digest.

Both views hold :class:`~repro.gossip.digest.ProfileDigest` snapshots backed
by the bit-packed Bloom filter, and stored replicas are
:class:`~repro.data.models.UserProfile` copies that carry their interned
indexes with them -- so view maintenance and query scoring stay on the fast
paths described in ``docs/ARCHITECTURE.md``.

View maintenance is *dirty-set driven*: the score ranking of a personal
network and the sorted membership of a random view are cached and only
recomputed after a mutation that can change them (``consider`` /
``_truncate`` / ``merge``), never per read.  A steady cycle -- in which
most peers' profiles did not change and most views did not move -- performs
no sorting at all, and the recomputations that do happen use partial
selection (``heapq``) instead of full sorts where only a prefix is needed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..data.models import UserProfile
from .digest import ProfileDigest


@dataclass(slots=True)
class NeighbourEntry:
    """One neighbour of the personal network."""

    user_id: int
    score: float
    digest: ProfileDigest
    #: Number of cycles since this neighbour was last gossiped with.
    timestamp: int = 0
    #: Local replica of the neighbour's profile (only for the top-c entries).
    profile: Optional[UserProfile] = None


def _rank_key(entry: NeighbourEntry) -> Tuple[float, int]:
    """Total-order ranking key: descending score, ascending user id."""
    return (-entry.score, entry.user_id)


#: Storage-boundary sentinel comparing worse than any real rank key: with
#: fewer than ``storage`` entries, every entry (and every candidate) is
#: within the replica budget.
_BOUNDARY_ALL: Tuple[float, int] = (float("inf"), -1)


class PersonalNetwork:
    """The ``s`` most similar neighbours, with profiles stored for the top ``c``."""

    def __init__(self, owner_id: int, size: int, storage: int) -> None:
        if size <= 0:
            raise ValueError("personal network size (s) must be positive")
        if storage < 0:
            raise ValueError("storage budget (c) must be non-negative")
        self.owner_id = owner_id
        self.size = size
        self.storage = min(storage, size)
        self._entries: Dict[int, NeighbourEntry] = {}
        #: Cached descending-score ranking; ``None`` after any mutation that
        #: can change scores or membership (the view's dirty marker).
        self._ranked: Optional[List[NeighbourEntry]] = None
        #: Rank key of the ``storage``-th best entry -- the admission
        #: threshold of the replica budget.  ``None`` means unknown (dirty);
        #: :data:`_BOUNDARY_ALL` means fewer than ``storage`` entries exist,
        #: so every entry is within budget.  A mutation whose keys stay
        #: strictly worse than the boundary on both sides provably cannot
        #: change the top-``c`` set, letting ``consider`` skip the budget
        #: scan entirely -- the common case in steady state.
        self._storage_boundary: Optional[Tuple[float, int]] = _BOUNDARY_ALL

    # -- basic accessors ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._entries

    def entry(self, user_id: int) -> NeighbourEntry:
        return self._entries[user_id]

    def get(self, user_id: int) -> Optional[NeighbourEntry]:
        return self._entries.get(user_id)

    def member_ids(self) -> List[int]:
        """All neighbour ids, descending score."""
        return [entry.user_id for entry in self.ranked_entries()]

    def ranked_entries(self) -> List[NeighbourEntry]:
        """Entries ordered by descending score (ties on user id).

        The ranking is cached until the next score/membership mutation;
        callers receive a fresh list they may slice or filter, but must not
        mutate the entries' scores directly (go through :meth:`consider`).
        """
        if self._ranked is None:
            self._ranked = sorted(
                self._entries.values(), key=lambda e: (-e.score, e.user_id)
            )
        return list(self._ranked)

    # -- stored replicas ------------------------------------------------------

    def stored_entries(self) -> List[NeighbourEntry]:
        return [entry for entry in self.ranked_entries() if entry.profile is not None]

    def stored_ids(self) -> List[int]:
        return [entry.user_id for entry in self.stored_entries()]

    def stored_profiles(self) -> Dict[int, UserProfile]:
        """user_id -> locally stored profile replica."""
        return {
            entry.user_id: entry.profile
            for entry in self._entries.values()
            if entry.profile is not None
        }

    def unstored_ids(self) -> List[int]:
        """Neighbours whose profiles are *not* stored locally.

        This is exactly the initial remaining list of a query issued by the
        owner of this personal network.
        """
        return [entry.user_id for entry in self.ranked_entries() if entry.profile is None]

    # -- maintenance ----------------------------------------------------------

    def consider(self, user_id: int, score: float, digest: ProfileDigest) -> bool:
        """Insert or refresh a neighbour candidate.

        Keeps the invariant that the network holds at most ``size`` entries,
        all with positive scores, and that stored profiles only exist for the
        ``storage`` highest-scored ones.  Returns ``True`` if the user is a
        member of the network after the call.
        """
        if user_id == self.owner_id:
            return False
        if score <= 0:
            # Zero-score users never qualify; drop them if they were members
            # (their score can only have been recomputed downward after a
            # profile change on our side).
            removed = self._entries.pop(user_id, None)
            if removed is not None:
                self._ranked = None
                boundary = self._storage_boundary
                if (
                    boundary is None
                    or removed.profile is not None
                    or _rank_key(removed) <= boundary
                ):
                    # A top-c member left: the budget set shifts.
                    self._enforce_storage_budget()
            return False
        existing = self._entries.get(user_id)
        if existing is not None:
            if existing.score != score:
                old_key = _rank_key(existing)
                existing.score = score
                new_key = _rank_key(existing)
                self._ranked = None
                boundary = self._storage_boundary
                if (
                    boundary is None
                    or existing.profile is not None
                    or old_key <= boundary
                    or new_key <= boundary
                ):
                    # The move touches the top-c region: re-derive the set.
                    self._enforce_storage_budget()
                # Otherwise the entry moved strictly below the admission
                # threshold on both sides: the top-c set is untouched.
            if digest.version >= existing.digest.version:
                # A stored replica older than this digest stays usable (old
                # opinions stay meaningful) until gossip refreshes it.
                existing.digest = digest
            return True
        entry = NeighbourEntry(user_id=user_id, score=score, digest=digest)
        self._entries[user_id] = entry
        self._ranked = None
        if len(self._entries) > self.size:
            self._truncate()
        else:
            boundary = self._storage_boundary
            if boundary is None or _rank_key(entry) <= boundary:
                self._enforce_storage_budget()
            # A newcomer ranked strictly below the admission threshold
            # cannot displace a stored replica: skip the budget scan.
        return user_id in self._entries

    def install(self, ranked: Iterable[Tuple[int, float, ProfileDigest]]) -> None:
        """Replace the entries with the first ``size`` qualifying ``(user_id, score,
        digest)`` triples of ``ranked`` (rank order): in one pass, the state :meth:`consider`
        of each leaves on an empty network.  Storing the top replicas is the caller's."""
        entries: Dict[int, NeighbourEntry] = {}
        for user_id, score, digest in ranked:
            if score > 0 and user_id != self.owner_id:
                entries[user_id] = NeighbourEntry(user_id, score, digest)
                if len(entries) == self.size:
                    break
        self._entries = entries
        self._ranked = list(entries.values())
        self._enforce_storage_budget()

    def _truncate(self) -> None:
        """Keep only the ``size`` best entries and demote excess replicas."""
        if len(self._entries) > self.size:
            keep = heapq.nsmallest(self.size, self._entries.values(), key=_rank_key)
            keep_ids = {entry.user_id for entry in keep}
            for user_id in [uid for uid in self._entries if uid not in keep_ids]:
                del self._entries[user_id]
            # nsmallest on the ranking key *is* the ranking of the survivors.
            self._ranked = keep
        self._enforce_storage_budget()

    def _top_ids(self, count: int) -> set:
        """Ids of the ``count`` highest-ranked entries (partial selection)."""
        if count >= len(self._entries):
            return set(self._entries)
        if self._ranked is not None:
            return {entry.user_id for entry in self._ranked[:count]}
        top = heapq.nsmallest(count, self._entries.values(), key=_rank_key)
        return {entry.user_id for entry in top}

    def _enforce_storage_budget(self) -> None:
        entries = self._entries
        storage = self.storage
        if len(entries) <= storage:
            # Everything fits the budget; no replica can be demoted.
            self._storage_boundary = _BOUNDARY_ALL
            return
        if self._ranked is not None:
            top = self._ranked[:storage]
        else:
            top = heapq.nsmallest(storage, entries.values(), key=_rank_key)
        self._storage_boundary = _rank_key(top[-1]) if top else _BOUNDARY_ALL
        keep = {entry.user_id for entry in top}
        for entry in entries.values():
            if entry.profile is not None and entry.user_id not in keep:
                entry.profile = None
        # Entries in `keep` may still lack a profile; fetching it is the
        # responsibility of the exchange protocol (profiles_wanted()).

    def profiles_wanted(self) -> List[int]:
        """Top-``storage`` neighbours whose replica is missing or stale."""
        wanted: List[int] = []
        for entry in self.ranked_entries()[: self.storage]:
            if entry.profile is None or entry.profile.version < entry.digest.version:
                wanted.append(entry.user_id)
        return wanted

    def store_profile(self, user_id: int, profile: UserProfile) -> bool:
        """Store (a copy of) a neighbour's profile if she is in the top-``c``.

        Returns ``True`` if the replica was stored.
        """
        entry = self._entries.get(user_id)
        if entry is None:
            return False
        if user_id not in self._top_ids(self.storage):
            return False
        entry.profile = profile.copy()
        return True

    # -- gossip partner selection ---------------------------------------------

    def select_oldest(self, restrict_to: Optional[Iterable[int]] = None) -> Optional[int]:
        """The neighbour with the oldest timestamp, without mutating state.

        ``restrict_to`` limits the choice to a subset (the eager mode only
        gossips with neighbours that are also in the remaining list).
        """
        candidates: Iterable[NeighbourEntry] = self._entries.values()
        if restrict_to is not None:
            allowed = set(restrict_to)
            candidates = [entry for entry in candidates if entry.user_id in allowed]
            if not candidates:
                return None
        elif not self._entries:
            return None
        oldest = min(candidates, key=lambda e: (-e.timestamp, -e.score, e.user_id))
        return oldest.user_id

    def mark_gossiped(self, user_id: int) -> None:
        """Reset the partner's timestamp and age every other entry by one."""
        for entry in self._entries.values():
            if entry.user_id == user_id:
                entry.timestamp = 0
            else:
                entry.timestamp += 1

    # -- storage metric -------------------------------------------------------

    def stored_profile_length(self) -> int:
        """Sum of stored replica lengths (the paper's Figure 5 metric)."""
        return sum(len(entry.profile) for entry in self._entries.values() if entry.profile)


class RandomView:
    """The ``r`` uniformly random neighbours maintained by peer sampling."""

    def __init__(self, owner_id: int, size: int) -> None:
        if size <= 0:
            raise ValueError("random view size (r) must be positive")
        self.owner_id = owner_id
        self.size = size
        self._entries: Dict[int, ProfileDigest] = {}
        #: Cached sorted membership and digest list; ``None`` after any
        #: mutation (dirty markers).  Peer sampling and the random-view
        #: refresh read the view three times per cycle per node while
        #: membership changes at most once, so caching pays every cycle.
        self._sorted_ids: Optional[List[int]] = None
        self._digest_list: Optional[List[ProfileDigest]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._entries

    def member_ids(self) -> List[int]:
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self._entries)
        return list(self._sorted_ids)

    def digests(self) -> List[ProfileDigest]:
        if self._digest_list is None:
            entries = self._entries
            if self._sorted_ids is None:
                self._sorted_ids = sorted(entries)
            self._digest_list = [entries[uid] for uid in self._sorted_ids]
        return list(self._digest_list)

    def random_partner(self, rng: random.Random) -> Optional[int]:
        """A uniformly random member to gossip with."""
        members = self.member_ids()
        if not members:
            return None
        return rng.choice(members)

    def merge(self, received: Iterable[ProfileDigest], rng: random.Random) -> None:
        """Union with the received digests, then keep ``size`` at random.

        Newer digest versions replace older ones for the same user; the owner
        is never a member of her own view.  The union mutates the entry dict
        in place (the received digests never reference it), saving one dict
        copy on a path that runs twice per node per cycle.
        """
        entries = self._entries
        owner_id = self.owner_id
        get = entries.get
        for digest in received:
            user_id = digest.user_id
            if user_id == owner_id:
                continue
            current = get(user_id)
            if current is None or digest.version >= current.version:
                entries[user_id] = digest
        self._sorted_ids = None
        self._digest_list = None
        self._shrink_random(rng)

    def _shrink_random(self, rng: random.Random) -> None:
        if len(self._entries) <= self.size:
            return
        keep = rng.sample(sorted(self._entries), k=self.size)
        self._entries = {uid: self._entries[uid] for uid in keep}
        self._sorted_ids = None
        self._digest_list = None
