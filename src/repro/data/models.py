"""Core data model for collaborative tagging systems.

The information space of the paper is a triple (U, I, T): users, items and
tags.  The atomic fact is a *tagging action* ``Tagged_u(i, t)`` -- user ``u``
annotated item ``i`` with tag ``t``.  A user's *profile* is the set of her
tagging actions, and all similarity / relevance computations in P3Q are
defined on these sets.

Users, items and tags are identified by small integers.  Keeping identifiers
numeric keeps profiles hashable and cheap to intersect, and matches the
paper's cost model (4-byte user ids, 16-byte hashed items / tags).

Profiles are *interned* and hold **one immutable copy** of their state: a
``frozenset`` of dense integer action ids (:mod:`repro.data.interning`) plus
``item -> tags`` and ``tag -> items`` dicts of tuples.  The ``(item, tag)``
tuple view is derived from that state on demand.  The similarity layer
intersects the id sets instead of rebuilding tuple sets per comparison --
see ``docs/ARCHITECTURE.md`` for the full design and its invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

from .interning import action_of, id_of, intern_action

#: A tagging action is the pair (item, tag).  The user is implied by the
#: profile that contains the action.
TaggingAction = Tuple[int, int]

#: Per-profile-version cap on the whole-reply memo of
#: :meth:`UserProfile.action_ids_for_items`.  The memo exists for *repeat*
#: multi-item requests (popular subjects advertised to many receivers);
#: past the cap, one-shot request sets are computed without being
#: remembered, bounding the memo's memory at large N.
_REPLY_MEMO_LIMIT = 512


class UserProfile:
    """The set of tagging actions of a single user.

    A profile supports the three views P3Q needs:

    * the set of actions, as interned ids (similarity scores are
      intersection sizes over this set) or as ``(item, tag)`` tuples;
    * the set of distinct items (this is what the Bloom-filter digest
      encodes);
    * an item -> tags index (used to answer queries and to transfer only the
      tags of *common* items during the lazy 3-step exchange) and a tag ->
      items index (query scoring).

    Stored, once and immutably: the ``frozenset`` of action ids that
    :attr:`action_ids` hands out, and the two indexes as dicts of tuples in
    insertion order.  Everything else (``actions``, ``items``, step-2
    replies) is derived, and cached per profile version only once someone
    asks.  Bulk construction and :meth:`add_all` build the state in one
    pass; a lone :meth:`add` rebuilds the id set, O(profile length).
    """

    __slots__ = (
        "user_id",
        "_action_ids",
        "_item_tags",
        "_tag_items",
        "_version",
        "_cache",
        "_shared",
    )

    def __init__(self, user_id: int, actions: Iterable[TaggingAction] = ()) -> None:
        self.user_id = user_id
        self._action_ids: FrozenSet[int] = frozenset()
        self._item_tags: Dict[int, Tuple[int, ...]] = {}
        self._tag_items: Dict[int, Tuple[int, ...]] = {}
        self._version = 0
        #: Per-version cache of derived views; cleared whenever the stored
        #: version key no longer matches :attr:`version`.
        self._cache: Dict[object, object] = {"version": -1}
        #: True while this profile's index dicts are shared with a
        #: copy-on-write snapshot; any mutation materializes private ones.
        self._shared = False
        self.add_all(actions)

    # -- mutation -----------------------------------------------------------

    def add_all(self, actions: Iterable[TaggingAction]) -> int:
        """Add many actions in one pass; returns how many were actually new.

        The one write path: the id set is rebuilt once for the whole batch
        and each new action extends its item's and its tag's tuple.  Repeats
        inside ``actions`` count once, and the version moves by the number
        of new actions.  Every new action bumps the version so that replicas
        (stored copies on other nodes) can detect staleness.
        """
        known = self._action_ids
        fresh: Dict[int, TaggingAction] = {}
        for item, tag in actions:
            action_id = intern_action(item, tag)
            if action_id not in known:
                fresh[action_id] = (item, tag)
        if not fresh:
            return 0
        if self._shared:
            self._materialize()
        self._action_ids = known.union(fresh)
        item_tags, tag_items = self._item_tags, self._tag_items
        for item, tag in fresh.values():
            item_tags[item] = item_tags.get(item, ()) + (tag,)
            tag_items[tag] = tag_items.get(tag, ()) + (item,)
        self._version += len(fresh)
        return len(fresh)

    @classmethod
    def from_distinct_actions(
        cls, user_id: int, actions: Iterable[TaggingAction]
    ) -> "UserProfile":
        """Build a profile from an action list in one direct pass.

        The bulk-load path of the setup pipeline (synthetic generation and
        the dataset disk cache), and the same thing as ``UserProfile(user_id,
        actions)``: the id set is built once, the index tuples follow the
        order of ``actions``, and the version is the number of distinct
        actions.  Duplicate entries are tolerated and counted once.
        """
        return cls(user_id, actions)

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
        profile = cls(user_id, actions)
        profile._version = version
        return profile

    def _materialize(self) -> None:
        """Replace the shared index dicts with private ones (COW write).

        Two shallow copies: the tuples inside and the id set are immutable,
        so only the dicts themselves can be written through.  Every holder
        checks ``_shared`` before its own first mutation, so it never
        observes this writer's changes; the other holders keep sharing the
        originals -- including the warm view cache, which the writer leaves
        behind for a private one (its version is about to diverge).
        """
        self._item_tags = dict(self._item_tags)
        self._tag_items = dict(self._tag_items)
        self._cache = {"version": -1}
        self._shared = False

    # -- read access --------------------------------------------------------

    def _views(self) -> Dict[object, object]:
        """The derived-view cache, emptied first if the profile has changed."""
        cache = self._cache
        if cache["version"] != self._version:
            cache.clear()
            cache["version"] = self._version
        return cache

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every profile change."""
        return self._version

    @property
    def actions(self) -> FrozenSet[TaggingAction]:
        """The set of tagging actions as ``(item, tag)`` tuples.

        Derived from the action ids through the interner on first request
        and cached for this version: the protocol never asks (it prices and
        scores on :attr:`action_ids`), so a profile at rest holds no tuple
        set.
        """
        views = self._views()
        actions = views.get("actions")
        if actions is None:
            actions = views["actions"] = frozenset(map(action_of, self._action_ids))
        return actions  # type: ignore[return-value]

    @property
    def action_ids(self) -> FrozenSet[int]:
        """Interned action ids (see :mod:`repro.data.interning`).

        ``a.action_ids & b.action_ids`` has the same cardinality as the
        intersection of the tuple-action sets; the similarity metrics score
        on this view.  This is the stored container itself, not a copy.
        """
        return self._action_ids

    @property
    def items(self) -> FrozenSet[int]:
        """Distinct items this user has tagged (content of the digest)."""
        views = self._views()
        items = views.get("items")
        if items is None:
            items = views["items"] = frozenset(self._item_tags)
        return items  # type: ignore[return-value]

    def tags_for(self, item: int) -> FrozenSet[int]:
        """Tags this user attached to ``item`` (empty if never tagged)."""
        return frozenset(self._item_tags.get(item, ()))

    def items_for_tag(self, tag: int) -> Tuple[int, ...]:
        """Items this user annotated with ``tag`` (empty if never used).

        Query scoring iterates the (few) query tags and walks this index,
        instead of scanning every action of the profile.  The stored tuple
        is returned itself, in the order the items were first tagged: a
        read allocates nothing and caches nothing, so long-lived replicas
        do not grow with the query-tag universe.
        """
        return self._tag_items.get(tag, ())

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
          that prices an equal common-items set the same frozenset object,
          and popular subjects get the same request from many receivers, so
          a repeat returns one shared tuple.

        Per-item tuples of distinct items are disjoint, so a ``frozenset``
        (or ``set``) request is concatenated and sorted once; any other
        iterable is de-duplicated first and not memoised.
        """
        cache = self._cache  # _views(), inlined: once per step-2 exchange
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

    def __len__(self) -> int:
        return len(self._action_ids)

    def __contains__(self, action: TaggingAction) -> bool:
        # A probe never allocates an id: an action the interner has not seen
        # is in no profile.
        action_id = id_of(*action)
        return action_id is not None and action_id in self._action_ids

    def __iter__(self) -> Iterator[TaggingAction]:
        """The actions, grouped by item in first-tagged order.

        Walks the stored index rather than the id set, so the order depends
        on this profile's own history only -- not on which ids the process-
        wide interner happened to hand out -- and nothing is allocated.
        """
        return (
            (item, tag) for item, tags in self._item_tags.items() for tag in tags
        )

    def copy(self) -> "UserProfile":
        """A logically deep snapshot of this profile (replicas on peers).

        The snapshot is copy-on-write: both profiles share the index dicts
        until either side mutates, at which point the writer materializes
        private ones first (:meth:`_materialize`); the id set is immutable
        and needs no protection.  Replica stores happen on every gossip
        exchange while replica *mutation* never happens (replicas are
        replaced wholesale), so sharing makes the common case O(1) instead
        of O(profile length).

        The version-keyed view cache is shared as well: every replica of a
        subject then reuses one warm set of derived views and per-item pair
        tuples, and each read re-validates the cache against its own
        version, so a sharer that mutated (and took a private cache with a
        bumped version) can never poison the others.
        """
        clone = UserProfile.__new__(UserProfile)
        clone.user_id = self.user_id
        clone._adopt(self)
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
        self._adopt(snapshot)

    def _adopt(self, source: "UserProfile") -> None:
        """Share ``source``'s state copy-on-write (both sides marked shared)."""
        source._shared = True
        self._action_ids = source._action_ids
        self._item_tags = source._item_tags
        self._tag_items = source._tag_items
        self._version = source._version
        self._cache = source._cache
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
