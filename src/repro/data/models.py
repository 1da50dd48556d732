"""Core data model for collaborative tagging systems.

The information space of the paper is a triple (U, I, T): users, items and
tags.  The atomic fact is a *tagging action* ``Tagged_u(i, t)`` -- user ``u``
annotated item ``i`` with tag ``t``.  A user's *profile* is the set of her
tagging actions, and all similarity / relevance computations in P3Q are
defined on these sets.

Users, items and tags are identified by small integers.  Keeping identifiers
numeric keeps profiles hashable and cheap to intersect, and matches the
paper's cost model (4-byte user ids, 16-byte hashed items / tags).

Profiles are *interned*: next to the raw ``(item, tag)`` tuple set each
profile incrementally maintains a parallel set of dense integer action ids
(:mod:`repro.data.interning`) plus per-version cached frozen views.  The
similarity layer intersects the id sets instead of rebuilding tuple sets per
comparison -- see ``docs/ARCHITECTURE.md`` for the full design and its
invariants.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from .interning import intern_action

#: A tagging action is the pair (item, tag).  The user is implied by the
#: profile that contains the action.
TaggingAction = Tuple[int, int]

_EMPTY_FROZENSET: FrozenSet[int] = frozenset()

#: Per-profile-version cap on the whole-reply memo of
#: :meth:`UserProfile.action_ids_for_items`.  The memo exists for *repeat*
#: multi-item requests (popular subjects advertised to many receivers);
#: past the cap, one-shot request sets are computed without being
#: remembered, bounding the memo's memory at large N.
_REPLY_MEMO_LIMIT = 512


class UserProfile:
    """The set of tagging actions of a single user.

    A profile supports the three views P3Q needs:

    * the raw set of ``(item, tag)`` actions (similarity scores are
      intersection sizes over this set);
    * the set of distinct items (this is what the Bloom-filter digest
      encodes);
    * an item -> tags index (used to answer queries and to transfer only the
      tags of *common* items during the lazy 3-step exchange).

    All indexes -- including the interned action-id set, a tag -> items index
    for query scoring, and the frozen views handed out by the read-access
    properties -- are maintained incrementally on ``add`` or cached per
    profile version, so the hot paths (similarity scoring, digest building,
    query evaluation) never rebuild them per call.
    """

    __slots__ = (
        "user_id",
        "_actions",
        "_action_ids",
        "_item_tags",
        "_tag_items",
        "_version",
        "_cache",
        "_shared",
    )

    def __init__(self, user_id: int, actions: Iterable[TaggingAction] = ()) -> None:
        self.user_id = user_id
        self._actions: Set[TaggingAction] = set()
        self._action_ids: Set[int] = set()
        self._item_tags: Dict[int, Set[int]] = defaultdict(set)
        self._tag_items: Dict[int, Set[int]] = defaultdict(set)
        self._version = 0
        #: Per-version cache of frozen views; cleared whenever the stored
        #: version key no longer matches :attr:`version`.
        self._cache: Dict[object, object] = {"version": -1}
        #: True while this profile's index containers are shared with a
        #: copy-on-write snapshot; any mutation materializes private ones.
        self._shared = False
        for item, tag in actions:
            self.add(item, tag)

    # -- mutation -----------------------------------------------------------

    def add(self, item: int, tag: int) -> bool:
        """Record that this user tagged ``item`` with ``tag``.

        Returns ``True`` if the action is new, ``False`` if it was already in
        the profile.  Every new action bumps the profile version so that
        replicas (stored copies on other nodes) can detect staleness.
        """
        action = (item, tag)
        if action in self._actions:
            return False
        if self._shared:
            self._materialize()
        self._actions.add(action)
        self._action_ids.add(intern_action(item, tag))
        self._item_tags[item].add(tag)
        self._tag_items[tag].add(item)
        self._version += 1
        return True

    def add_all(self, actions: Iterable[TaggingAction]) -> int:
        """Add many actions; returns how many were actually new."""
        return sum(1 for item, tag in actions if self.add(item, tag))

    @classmethod
    def from_distinct_actions(
        cls, user_id: int, actions: Sequence[TaggingAction]
    ) -> "UserProfile":
        """Build a profile from an action list in one direct pass.

        State-identical to ``UserProfile(user_id, actions)`` -- same sets
        with the same insertion order, same version counter (the number of
        distinct actions) -- but every index is constructed exactly once at
        C speed instead of through per-action ``add`` calls.  This is the
        bulk-load path of the setup pipeline (synthetic generation and the
        dataset disk cache); duplicate entries in ``actions`` are tolerated
        and counted once, exactly as ``add`` would.
        """
        profile = cls.__new__(cls)
        profile.user_id = user_id
        action_set = set(actions)
        profile._actions = action_set
        profile._action_ids = {intern_action(item, tag) for item, tag in actions}
        item_tags: Dict[int, Set[int]] = defaultdict(set)
        tag_items: Dict[int, Set[int]] = defaultdict(set)
        for item, tag in actions:
            item_tags[item].add(tag)
            tag_items[tag].add(item)
        profile._item_tags = item_tags
        profile._tag_items = tag_items
        profile._version = len(action_set)
        profile._cache = {"version": -1}
        profile._shared = False
        return profile

    @classmethod
    def from_state(
        cls, user_id: int, actions: Iterable[TaggingAction], version: int
    ) -> "UserProfile":
        """Rebuild a profile from transferred state: actions + version.

        The wire codecs ship a profile as its action set plus its *live*
        version counter -- which counts every mutation since birth, not
        just the actions currently present, and replica-freshness tracking
        needs it intact across a codec round-trip.  This is the one
        sanctioned way to restore a foreign version counter; everything
        else about the profile matches :meth:`from_distinct_actions`.
        """
        if version < 0:
            raise ValueError(f"profile version must be non-negative, got {version!r}")
        profile = cls.from_distinct_actions(user_id, list(actions))
        profile._version = version
        return profile

    @classmethod
    def from_columnar(cls, store, user_id: int) -> "UserProfile":
        """Materialize a profile from a :class:`~repro.data.columnar.ColumnarStore` row.

        State-identical to feeding the row's action list (stored in the
        exact order the generator emitted it) through
        :meth:`from_distinct_actions`: same sets with the same insertion
        order, same version.  The columnar pipeline keeps users as flat
        array rows until a consumer needs the object API; this is the
        crossing point.
        """
        row = store.row_of(user_id)
        if row is None:
            raise KeyError(f"user {user_id} not in columnar store")
        profile = cls.from_distinct_actions(user_id, store.actions_of_row(row))
        profile._version = store.versions[row]
        return profile

    def _materialize(self) -> None:
        """Replace shared index containers with private copies (COW write).

        Every holder of the shared containers checks ``_shared`` before its
        own first mutation, so it never observes this writer's changes; the
        other holders keep sharing the (now frozen-in-practice) originals --
        including the warm view cache, which the writer leaves behind for a
        private one (its version is about to diverge).
        """
        self._actions = set(self._actions)
        self._action_ids = set(self._action_ids)
        self._item_tags = defaultdict(set, {i: set(t) for i, t in self._item_tags.items()})
        self._tag_items = defaultdict(set, {t: set(i) for t, i in self._tag_items.items()})
        self._cache = {"version": -1}
        self._shared = False

    # -- read access --------------------------------------------------------

    def _frozen(self, key: object, source: Iterable) -> FrozenSet:
        """A frozen view of ``source``, cached until the next profile change."""
        cache = self._cache
        if cache["version"] != self._version:
            cache.clear()
            cache["version"] = self._version
        value = cache.get(key)
        if value is None:
            value = cache[key] = frozenset(source)
        return value  # type: ignore[return-value]

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every profile change."""
        return self._version

    @property
    def actions(self) -> FrozenSet[TaggingAction]:
        """The (immutable view of the) set of tagging actions."""
        return self._frozen("actions", self._actions)

    @property
    def action_ids(self) -> FrozenSet[int]:
        """Interned action ids (see :mod:`repro.data.interning`).

        ``a.action_ids & b.action_ids`` has the same cardinality as the
        intersection of the tuple-action sets; the similarity metrics score
        on this view.
        """
        return self._frozen("action_ids", self._action_ids)

    @property
    def items(self) -> FrozenSet[int]:
        """Distinct items this user has tagged (content of the digest)."""
        return self._frozen("items", self._item_tags)

    def tags_for(self, item: int) -> FrozenSet[int]:
        """Tags this user attached to ``item`` (empty if never tagged)."""
        return frozenset(self._item_tags.get(item, ()))

    def items_for_tag(self, tag: int) -> FrozenSet[int]:
        """Items this user annotated with ``tag`` (empty if never used).

        Query scoring iterates the (few) query tags and walks this index,
        instead of scanning every action of the profile.  Absent tags share
        one empty frozenset rather than caching an entry per queried tag --
        long-lived replicas would otherwise grow with the query-tag universe.
        """
        items = self._tag_items.get(tag)
        if not items:
            return _EMPTY_FROZENSET
        return self._frozen(("tag", tag), items)

    def actions_for_items(self, items: Iterable[int]) -> AbstractSet[TaggingAction]:
        """Tagging actions restricted to a set of items, as a fresh set.

        The tuple-level statement of what step 2 of the lazy exchange ships:
        only the actions on *common* items, so the peer can compute the exact
        similarity score without receiving the whole profile.  The protocol
        itself carries the interned form (:meth:`action_ids_for_items`);
        this one is a single uncached pass kept as its readable reference.
        """
        item_tags = self._item_tags
        return {(item, tag) for item in items for tag in item_tags.get(item, ())}

    def action_ids_for_items(self, items: Iterable[int]) -> Tuple[int, ...]:
        """Interned ids of the tagging actions restricted to ``items``.

        The step-2 reply of the lazy exchange: a flat *ascending* tuple of
        interned action ids without repeats.  By bijectivity of the interner
        ``len(reply)`` is the number of ``(item, tag)`` actions on the
        requested items -- all the cost model charges -- and
        ``len(receiver.action_ids.intersection(reply))`` is exactly the
        overlap score, so replies are priced, shipped and scored without
        ever materializing tuple sets.

        Two version-keyed levels, both in the copy-on-write view cache that
        every replica of this profile at this version shares:

        * per-item ascending id tuples (``pairs_ids``).  A request for one
          item returns that tuple *itself*: no memo entry, no allocation;
        * whole replies keyed by the request's frozenset (at most
          :data:`_REPLY_MEMO_LIMIT`).  The digest cache hands every exchange
          of the same (receiver, subject) pair at the same versions the same
          common-items frozenset, and popular subjects get the same request
          from many receivers, so a repeat returns one shared tuple.

        Per-item tuples of distinct items are disjoint, so a ``frozenset``
        (or ``set``) request is concatenated and sorted once; any other
        iterable is de-duplicated first and not memoised.
        """
        cache = self._cache
        if cache["version"] != self._version:
            cache.clear()
            cache["version"] = self._version
        if type(items) is not frozenset and type(items) is not set:
            items = set(items)
        single = len(items) == 1
        memoised = type(items) is frozenset and not single
        if memoised:
            replies = cache.get("afi_ids")
            if replies is None:
                replies = cache["afi_ids"] = {}
            reply = replies.get(items)
            if reply is not None:
                return reply
        item_tags = self._item_tags
        pairs_by_item = cache.get("pairs_ids")
        if pairs_by_item is None:
            pairs_by_item = cache["pairs_ids"] = {}
        ids: List[int] = []
        for item in items:
            pairs = pairs_by_item.get(item)
            if pairs is None:
                tags = item_tags.get(item)
                if not tags:
                    continue
                pairs = pairs_by_item[item] = tuple(
                    sorted(intern_action(item, tag) for tag in tags)
                )
            if single:
                return pairs
            ids += pairs
        reply = tuple(sorted(ids))
        if memoised and len(replies) < _REPLY_MEMO_LIMIT:
            replies[items] = reply
        return reply

    def has_item(self, item: int) -> bool:
        return item in self._item_tags

    def __len__(self) -> int:
        return len(self._actions)

    def __contains__(self, action: TaggingAction) -> bool:
        return action in self._actions

    def __iter__(self) -> Iterator[TaggingAction]:
        return iter(self._actions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserProfile):
            return NotImplemented
        return self.user_id == other.user_id and self._actions == other._actions

    def __hash__(self) -> int:  # pragma: no cover - identity-style hashing
        return hash((self.user_id, len(self._actions)))

    def __repr__(self) -> str:
        return f"UserProfile(user_id={self.user_id}, actions={len(self._actions)})"

    def copy(self) -> "UserProfile":
        """A logically deep snapshot of this profile (replicas on peers).

        The snapshot is copy-on-write: both profiles share the index
        containers until either side mutates, at which point the writer
        materializes private copies first (:meth:`_materialize`).  Replica
        stores happen on every gossip exchange while replica *mutation*
        never happens (replicas are replaced wholesale), so sharing makes
        the common case O(1) instead of O(profile length).

        The version-keyed view cache is shared as well: every replica of a
        subject then reuses one warm set of frozen views and per-item pair
        tuples, and each read re-validates the cache against its own
        version, so a sharer that mutated (and took a private cache with a
        bumped version) can never poison the others.
        """
        self._shared = True
        clone = UserProfile.__new__(UserProfile)
        clone.user_id = self.user_id
        clone._actions = self._actions
        clone._action_ids = self._action_ids
        clone._item_tags = self._item_tags
        clone._tag_items = self._tag_items
        clone._version = self._version
        clone._cache = self._cache
        clone._shared = True
        return clone

    def restore(self, snapshot: "UserProfile") -> None:
        """Reset this profile *in place* to an earlier :meth:`copy` snapshot.

        This is the crash-recovery path: a node that crashed and restarts
        comes back with the state it had persisted before the crash, losing
        whatever happened in between.  Restoring in place (rather than
        swapping in the snapshot object) matters because the node, the
        dataset and any number of replicas may all alias this very object;
        after the restore they all observe the pre-crash state.  The
        containers are adopted copy-on-write, exactly like :meth:`copy` --
        the snapshot stays valid and either side materializes on its next
        mutation.  The version moves *backwards*; that is safe because every
        staleness check in the stack (`DigestCache`, replica freshness)
        compares versions for inequality, never for ordering.
        """
        if snapshot.user_id != self.user_id:
            raise ValueError(
                f"cannot restore profile {self.user_id} from a snapshot of "
                f"profile {snapshot.user_id}"
            )
        snapshot._shared = True
        self._actions = snapshot._actions
        self._action_ids = snapshot._action_ids
        self._item_tags = snapshot._item_tags
        self._tag_items = snapshot._tag_items
        self._version = snapshot._version
        self._cache = snapshot._cache
        self._shared = True


@dataclass
class DatasetStats:
    """Aggregate statistics of a tagging dataset (mirrors Section 3.1.1)."""

    num_users: int
    num_items: int
    num_tags: int
    num_actions: int
    mean_profile_length: float
    max_profile_length: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_tags": self.num_tags,
            "num_actions": self.num_actions,
            "mean_profile_length": self.mean_profile_length,
            "max_profile_length": self.max_profile_length,
        }


class Dataset:
    """An immutable-ish collection of user profiles.

    The dataset is the offline view of the collaborative tagging system: it
    knows every user's profile and can compute global statistics, but the
    P3Q nodes themselves only ever see the profiles they store or receive
    through gossip.
    """

    def __init__(self, profiles: Mapping[int, UserProfile]) -> None:
        self._profiles: Dict[int, UserProfile] = dict(profiles)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_actions(cls, actions: Mapping[int, Iterable[TaggingAction]]) -> "Dataset":
        """Build a dataset from a ``user_id -> iterable of (item, tag)`` map."""
        return cls(
            {uid: UserProfile(uid, acts) for uid, acts in actions.items()}
        )

    # -- accessors ------------------------------------------------------------

    @property
    def user_ids(self) -> List[int]:
        return sorted(self._profiles)

    def profile(self, user_id: int) -> UserProfile:
        return self._profiles[user_id]

    def profiles(self) -> Iterator[UserProfile]:
        for uid in self.user_ids:
            yield self._profiles[uid]

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._profiles

    # -- statistics -----------------------------------------------------------

    def items(self) -> Set[int]:
        """All distinct items tagged by at least one user."""
        out: Set[int] = set()
        for profile in self._profiles.values():
            out |= profile.items
        return out

    def tags(self) -> Set[int]:
        """All distinct tags used by at least one user."""
        return {tag for p in self._profiles.values() for _, tag in p}

    def item_popularity(self) -> Counter:
        """item -> number of distinct users who tagged it."""
        counts: Counter = Counter()
        for profile in self._profiles.values():
            counts.update(profile.items)
        return counts

    def tag_popularity(self) -> Counter:
        """tag -> number of distinct users who used it."""
        counts: Counter = Counter()
        for profile in self._profiles.values():
            counts.update({tag for _, tag in profile})
        return counts

    def stats(self) -> DatasetStats:
        lengths = [len(p) for p in self._profiles.values()]
        total = sum(lengths)
        return DatasetStats(
            num_users=len(self._profiles),
            num_items=len(self.items()),
            num_tags=len(self.tags()),
            num_actions=total,
            mean_profile_length=total / len(lengths) if lengths else 0.0,
            max_profile_length=max(lengths) if lengths else 0,
        )

    # -- transformations ------------------------------------------------------

    def filter_rare(self, min_item_users: int = 10, min_tag_users: int = 10) -> "Dataset":
        """Drop actions on items/tags used by too few distinct users.

        Mirrors the paper's dataset cleaning: profiles are rebuilt with the
        items and tags "used by at least 10 distinct users".  Items at the
        tail of the candidate lists are hardly ever in a top-k result, so the
        filtering does not change the experiments' conclusions while keeping
        the trace small.
        """
        item_pop = self.item_popularity()
        tag_pop = self.tag_popularity()
        keep_items = {i for i, n in item_pop.items() if n >= min_item_users}
        keep_tags = {t for t, n in tag_pop.items() if n >= min_tag_users}
        filtered: Dict[int, UserProfile] = {}
        for uid, profile in self._profiles.items():
            actions = [
                (item, tag)
                for item, tag in profile
                if item in keep_items and tag in keep_tags
            ]
            filtered[uid] = UserProfile(uid, actions)
        return Dataset(filtered)

    def sample_users(self, user_ids: Iterable[int]) -> "Dataset":
        """Restrict the dataset to the given users (paper: 10,000 of 13,521)."""
        wanted = set(user_ids)
        return Dataset(
            {uid: p.copy() for uid, p in self._profiles.items() if uid in wanted}
        )

    def copy(self) -> "Dataset":
        return Dataset({uid: p.copy() for uid, p in self._profiles.items()})


@dataclass(frozen=True)
class ProfileChange:
    """A batch of new tagging actions applied to one user's profile.

    Profile dynamics in the paper are expressed as per-day batches of new
    tagging actions (Section 3.4.1).  A change never removes actions -- in a
    tagging system an opinion, once expressed, stays meaningful.
    """

    user_id: int
    new_actions: Tuple[TaggingAction, ...]

    def __len__(self) -> int:
        return len(self.new_actions)


@dataclass(frozen=True)
class ChangeDay:
    """All profile changes happening on one (simulated) day."""

    day: int
    changes: Tuple[ProfileChange, ...] = field(default_factory=tuple)

    @property
    def changed_users(self) -> FrozenSet[int]:
        return frozenset(change.user_id for change in self.changes)

    def __len__(self) -> int:
        return len(self.changes)
