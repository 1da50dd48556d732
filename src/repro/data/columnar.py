"""Columnar node state: flat arrays behind the object-level data model.

At N=1,000,000 the per-user Python objects of the setup pipeline -- one
action list, one :class:`~repro.data.models.UserProfile` with its id set
and two index dicts -- dominate both memory and setup time.  This module
stores the same information *columnarly*, as a **layout** only (digests
are built and probed by :class:`~repro.gossip.digest.DigestCache` from
materialized profiles; see "Measured and removed" in
``docs/ARCHITECTURE.md`` for the columnar digest rows this module used to
carry):

* **Action columns.**  All tagging actions of all users live in two flat
  ``int32`` arrays (``items``, ``tags``) with a per-user ``offsets`` table,
  exactly the layout of the binary dataset disk cache
  (:mod:`repro.data.loader`) -- a cache hit IS a columnar load.
* **Object API compatibility.**  :meth:`ColumnarDataset.profile`
  materializes a :class:`~repro.data.models.UserProfile` from the columns
  through ``UserProfile.from_columnar`` on first access -- same id set,
  same index tuples, same version counter as the object pipeline, pinned by
  the dataset fingerprint tests -- so everything downstream of a dataset
  keeps working unchanged at small N while large-N setup stays columnar
  until a profile is actually needed.

The store's contract is the disk cache's contract: each user's action list
is **distinct** (the generator emits ``list(set)``), so the number of
actions in a row equals the profile version that
:meth:`UserProfile.from_distinct_actions` would produce.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .models import Dataset, TaggingAction, UserProfile


class ColumnarStore:
    """Flat-array storage of every user's tagging actions.

    Rows are indexed 0..N-1 in the order users were appended (ascending user
    id on every construction path used by the pipeline); ``row_of`` maps an
    arbitrary user id back to its row.
    """

    __slots__ = ("uids", "offsets", "items", "tags", "versions", "_row_of")

    def __init__(self) -> None:
        self.uids = array("q")
        self.offsets = array("q", [0])
        self.items = array("i")
        self.tags = array("i")
        #: Per-row profile version (== the distinct-action count).
        self.versions = array("q")
        self._row_of: Optional[Dict[int, int]] = None

    # -- construction ---------------------------------------------------------

    def _append_row(self, user_id: int, end: int) -> None:
        """Register the row whose actions end at flat index ``end``."""
        row = len(self.uids)
        self.uids.append(user_id)
        self.versions.append(end - self.offsets[-1])
        self.offsets.append(end)
        if self._row_of is not None:
            self._row_of[user_id] = row
        elif user_id != row:
            # Ids stopped being dense 0..N-1: switch to explicit mapping.
            self._row_of = {uid: index for index, uid in enumerate(self.uids)}

    @classmethod
    def from_action_stream(
        cls, stream: Iterable[Tuple[int, Sequence[TaggingAction]]]
    ) -> "ColumnarStore":
        """Build a store from ``(user_id, distinct action list)`` records."""
        store = cls()
        items, tags = store.items, store.tags
        for user_id, actions in stream:
            for item, tag in actions:
                items.append(item)
                tags.append(tag)
            store._append_row(user_id, len(items))
        return store

    @classmethod
    def from_cache_arrays(
        cls,
        uids: Sequence[int],
        counts: Sequence[int],
        items: Sequence[int],
        tags: Sequence[int],
    ) -> "ColumnarStore":
        """Adopt the four arrays of a binary trace-cache file directly.

        The cache layout is already columnar; this constructor only builds
        the offset table -- no per-user list slicing, no tuple
        materialization, no walk over the actions.
        """
        store = cls()
        store.items = array("i", items) if not isinstance(items, array) else items
        store.tags = array("i", tags) if not isinstance(tags, array) else tags
        end = 0
        for uid, count in zip(uids, counts):
            end += count
            store._append_row(uid, end)
        return store

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.uids)

    @property
    def num_actions(self) -> int:
        return len(self.items)

    def row_of(self, user_id: int) -> Optional[int]:
        if self._row_of is not None:
            return self._row_of.get(user_id)
        return user_id if 0 <= user_id < len(self.uids) else None

    def actions_of_row(self, row: int) -> List[TaggingAction]:
        """The user's action list in stored (generation) order."""
        start, end = self.offsets[row], self.offsets[row + 1]
        return list(zip(self.items[start:end], self.tags[start:end]))


class ColumnarDataset(Dataset):
    """A :class:`Dataset` backed by a :class:`ColumnarStore`.

    Profiles are materialized lazily through
    :meth:`UserProfile.from_columnar` -- bit-identical to the object
    pipeline's ``from_distinct_actions`` (same action order, same index
    tuples, same version) -- so holding the dataset costs four flat arrays
    until a consumer actually touches a profile.
    """

    def __init__(self, store: ColumnarStore) -> None:
        super().__init__({})
        self.store = store

    # -- lazy materialization --------------------------------------------------

    def profile(self, user_id: int) -> UserProfile:
        profile = self._profiles.get(user_id)
        if profile is None:
            row = self.store.row_of(user_id)
            if row is None:
                raise KeyError(user_id)
            profile = UserProfile.from_columnar(self.store, user_id)
            self._profiles[user_id] = profile
        return profile

    def profiles(self) -> Iterator[UserProfile]:
        for user_id in self.user_ids:
            yield self.profile(user_id)

    @property
    def user_ids(self) -> List[int]:
        return sorted(self.store.uids)

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, user_id: int) -> bool:
        return self.store.row_of(user_id) is not None

    def copy(self) -> "ColumnarDataset":
        """A fresh lazy view over the same store.

        Profiles already materialized are carried over as copy-on-write
        snapshots (they may have diverged from the store through dynamics);
        everything else stays columnar until touched.
        """
        clone = ColumnarDataset(self.store)
        clone._profiles = {uid: p.copy() for uid, p in self._profiles.items()}
        return clone

    # -- whole-dataset views ---------------------------------------------------

    def _materialize_all(self) -> None:
        for _ in self.profiles():
            pass

    def items(self):
        self._materialize_all()
        return super().items()

    def tags(self):
        self._materialize_all()
        return super().tags()

    def item_popularity(self):
        self._materialize_all()
        return super().item_popularity()

    def tag_popularity(self):
        self._materialize_all()
        return super().tag_popularity()

    def stats(self):
        self._materialize_all()
        return super().stats()

    def filter_rare(self, min_item_users: int = 10, min_tag_users: int = 10):
        self._materialize_all()
        return super().filter_rare(min_item_users, min_tag_users)

    def sample_users(self, user_ids):
        self._materialize_all()
        return super().sample_users(user_ids)
