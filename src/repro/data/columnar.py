"""Columnar node state: flat arrays behind the object-level data model.

At N=1,000,000 the per-user Python objects of the setup pipeline -- one
action list, one :class:`~repro.data.models.UserProfile` with four index
containers, one 20 Kbit Bloom-filter integer -- dominate both memory and
setup time.  This module stores the same information *columnarly*:

* **Action columns.**  All tagging actions of all users live in two flat
  ``int32`` arrays (``items``, ``tags``) with a per-user ``offsets`` table,
  exactly the layout of the binary dataset disk cache
  (:mod:`repro.data.loader`) -- a cache hit IS a columnar load.  A third
  column pair (``item_offsets`` / ``item_values``) holds each user's
  *distinct* items in first-seen order: the content of her digest and the
  left-hand side of every digest probe.
* **Digest rows.**  :class:`DigestMatrix` stores every user's Bloom digest
  as a fixed-width little-endian byte row, optionally in one
  ``multiprocessing.shared_memory`` block so persistent shard workers map
  the digests once and see the parent's per-cycle row updates without any
  re-fork or pickling.  ``row_bits_int`` round-trips a row into the
  bit-packed integer of :class:`~repro.bloom.BloomFilter` -- the two
  representations are the same bits by construction (the row is the OR of
  the items' probe-mask bytes; the integer is the OR of the same masks).
* **Object API compatibility.**  :meth:`ColumnarDataset.profile`
  materializes a :class:`~repro.data.models.UserProfile` from the columns
  through ``UserProfile.from_columnar`` on first access -- same sets, same
  insertion order, same version counter as the object pipeline, pinned by
  the dataset fingerprint tests -- so everything downstream of a dataset
  keeps working unchanged at small N while large-N setup stays columnar
  until a profile is actually needed.

The store's contract is the disk cache's contract: each user's action list
is **distinct** (the generator emits ``list(set)``; object datasets iterate
a set), so the number of actions in a row equals the profile version that
:meth:`UserProfile.from_distinct_actions` would produce.
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..bloom.bloom import pack_row, probe_positions
from .models import Dataset, TaggingAction, UserProfile

#: Per-geometry caches of probe-mask *integers*: the OR of a key's probe
#: bits, identical to :meth:`BloomFilter._probe_mask` output.  Kept here
#: (not on a filter instance) because digest-row construction and the shard
#: workers' pair pricing probe the same item universe over and over.
_MASK_INTS: Dict[Tuple[int, int], Dict[int, int]] = {}
_MASK_INT_LIMIT = 1 << 20


def geometry_mask_cache(num_bits: int, num_hashes: int) -> Dict[int, int]:
    """The ``item -> probe-mask int`` cache of one geometry.

    Hot loops (shard-worker pricing, the probe micro-benchmark) hoist this
    dict once and hit it directly; :func:`mask_int` is the filling reader.
    """
    return _MASK_INTS.setdefault((num_bits, num_hashes), {})


def mask_int(item: int, num_bits: int, num_hashes: int) -> int:
    """The probe mask of ``item`` as a big int, memoized per geometry.

    Bit-identical to ``BloomFilter._probe_mask(item)``: the OR of the same
    :func:`~repro.bloom.bloom.probe_positions` sequence.
    """
    cache = _MASK_INTS.setdefault((num_bits, num_hashes), {})
    mask = cache.get(item)
    if mask is None:
        mask = 0
        for position in probe_positions(item, num_bits, num_hashes):
            mask |= 1 << position
        if len(cache) < _MASK_INT_LIMIT:
            cache[item] = mask
    return mask


class ColumnarStore:
    """Flat-array storage of every user's tagging actions.

    Rows are indexed 0..N-1 in the order users were appended (ascending user
    id on every construction path used by the pipeline); ``row_of`` maps an
    arbitrary user id back to its row.
    """

    __slots__ = (
        "uids",
        "offsets",
        "items",
        "tags",
        "item_offsets",
        "item_values",
        "versions",
        "_row_of",
        "_max_item",
    )

    def __init__(self) -> None:
        self.uids = array("q")
        self.offsets = array("q", [0])
        self.items = array("i")
        self.tags = array("i")
        self.item_offsets = array("q", [0])
        self.item_values = array("i")
        #: Per-row profile version (== the distinct-action count on the
        #: generation path; the live ``profile.version`` when built from an
        #: object dataset that already saw dynamics).
        self.versions = array("q")
        self._row_of: Optional[Dict[int, int]] = None
        self._max_item = -1

    # -- construction ---------------------------------------------------------

    def append_user(
        self,
        user_id: int,
        actions: Sequence[TaggingAction],
        version: Optional[int] = None,
    ) -> int:
        """Append one user's (distinct) action list; returns the row index."""
        row = len(self.uids)
        self.uids.append(user_id)
        items = self.items
        tags = self.tags
        item_values = self.item_values
        seen: set = set()
        seen_add = seen.add
        max_item = self._max_item
        for item, tag in actions:
            items.append(item)
            tags.append(tag)
            if item not in seen:
                seen_add(item)
                item_values.append(item)
                if item > max_item:
                    max_item = item
        self._max_item = max_item
        self.offsets.append(len(items))
        self.item_offsets.append(len(item_values))
        self.versions.append(len(actions) if version is None else version)
        if self._row_of is not None:
            self._row_of[user_id] = row
        elif user_id != row:
            # Ids stopped being dense 0..N-1: switch to explicit mapping.
            self._row_of = {uid: index for index, uid in enumerate(self.uids)}
        return row

    @classmethod
    def from_action_stream(
        cls, stream: Iterable[Tuple[int, Sequence[TaggingAction]]]
    ) -> "ColumnarStore":
        """Build a store from ``(user_id, distinct action list)`` records."""
        store = cls()
        for user_id, actions in stream:
            store.append_user(user_id, actions)
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
        the offset tables and the distinct-item column -- no per-user list
        slicing, no tuple materialization.
        """
        store = cls()
        store.items = array("i", items) if not isinstance(items, array) else items
        store.tags = array("i", tags) if not isinstance(tags, array) else tags
        offsets = store.offsets
        item_values = store.item_values
        item_offsets = store.item_offsets
        versions = store.versions
        store_items = store.items
        max_item = -1
        position = 0
        for uid, count in zip(uids, counts):
            row = len(store.uids)
            store.uids.append(uid)
            end = position + count
            seen: set = set()
            seen_add = seen.add
            for index in range(position, end):
                item = store_items[index]
                if item not in seen:
                    seen_add(item)
                    item_values.append(item)
                    if item > max_item:
                        max_item = item
            position = end
            offsets.append(end)
            item_offsets.append(len(item_values))
            versions.append(count)
            if store._row_of is not None:
                store._row_of[uid] = row
            elif uid != row:
                store._row_of = {u: i for i, u in enumerate(store.uids)}
        store._max_item = max_item
        return store

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ColumnarStore":
        """Snapshot an object dataset's current profiles into columns.

        Used to back the persistent worker pool when the simulation was
        built from an object dataset: row content and versions mirror the
        live profiles at snapshot time (later profile changes travel to the
        workers as per-cycle deltas, not through this store).
        """
        store = cls()
        for profile in dataset.profiles():
            store.append_user(
                profile.user_id, list(profile), version=profile.version
            )
        return store

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.uids)

    @property
    def num_actions(self) -> int:
        return len(self.items)

    @property
    def max_item(self) -> int:
        """Largest item id present (``-1`` when the store is empty)."""
        return self._max_item

    def row_of(self, user_id: int) -> Optional[int]:
        if self._row_of is not None:
            return self._row_of.get(user_id)
        return user_id if 0 <= user_id < len(self.uids) else None

    def user_ids(self) -> List[int]:
        return list(self.uids)

    def actions_of_row(self, row: int) -> List[TaggingAction]:
        """The user's action list in stored (generation) order."""
        start, end = self.offsets[row], self.offsets[row + 1]
        return list(zip(self.items[start:end], self.tags[start:end]))

    def distinct_items_of_row(self, row: int) -> Sequence[int]:
        start, end = self.item_offsets[row], self.item_offsets[row + 1]
        return self.item_values[start:end]

    def iter_rows(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(row, user_id)`` in row order."""
        return enumerate(self.uids)


class DigestMatrix:
    """Fixed-width Bloom-digest byte rows for every user of a store.

    Row ``i`` holds the little-endian bytes of user ``i``'s digest bit
    array in the given geometry, plus a version slot (``-1`` = row not
    built).  With ``shared=True`` both live in one
    ``multiprocessing.shared_memory`` block: forked shard workers map the
    block once at startup and observe every parent-side row update --
    the per-cycle delta protocol never ships digest bytes.
    """

    def __init__(
        self,
        num_rows: int,
        num_bits: int,
        num_hashes: int,
        shared: bool = False,
    ) -> None:
        if num_rows < 0:
            raise ValueError("num_rows must be non-negative")
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("digest geometry must be positive")
        self.num_rows = num_rows
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.row_bytes = (num_bits + 7) // 8
        payload = num_rows * self.row_bytes
        version_bytes = num_rows * 8
        self.shared = shared
        self._shm = None
        self._finalizer = None
        if shared:
            from multiprocessing import shared_memory
            import weakref

            self._shm = shared_memory.SharedMemory(
                create=True, size=max(1, payload + version_bytes)
            )
            buffer = self._shm.buf
        else:
            buffer = memoryview(bytearray(max(1, payload + version_bytes)))
        self._rows = buffer[:payload]
        self._versions = buffer[payload : payload + version_bytes].cast("q")
        if shared:
            # The creator owns the block: release the exported views, then
            # close+unlink, when the matrix dies (or close() is called).
            self._views = [self._rows, self._versions]
            self._finalizer = weakref.finalize(
                self, _release_shared_block, self._shm, self._views, os.getpid()
            )
        for row in range(num_rows):
            self._versions[row] = -1

    # -- row access -----------------------------------------------------------

    def row_version(self, row: int) -> int:
        return self._versions[row]

    def row_bytes_of(self, row: int) -> bytes:
        start = row * self.row_bytes
        return bytes(self._rows[start : start + self.row_bytes])

    def row_bits_int(self, row: int) -> int:
        """The row as the bit-packed integer a :class:`BloomFilter` holds."""
        start = row * self.row_bytes
        return int.from_bytes(self._rows[start : start + self.row_bytes], "little")

    def set_row_from_items(self, row: int, items: Iterable[int], version: int) -> None:
        """(Re)build one digest row from an item set: OR of the probe masks."""
        bits = 0
        num_bits, num_hashes = self.num_bits, self.num_hashes
        for item in items:
            bits |= mask_int(item, num_bits, num_hashes)
        start = row * self.row_bytes
        self._rows[start : start + self.row_bytes] = pack_row(bits, num_bits)
        self._versions[row] = version

    def built_count(self) -> int:
        return sum(1 for row in range(self.num_rows) if self._versions[row] >= 0)

    # -- bulk build -----------------------------------------------------------

    def build_rows(self, store: ColumnarStore, rows: Optional[Sequence[int]] = None) -> int:
        """Build digest rows for ``rows`` (default: all) from the store.

        Per row: OR the memoized probe masks of the row's distinct items and
        write the packed bytes straight into the (possibly shared) buffer.
        The big-int OR runs over 64-bit limbs in C with the row accumulator
        and the per-geometry mask cache staying cache-resident -- measured
        faster than a vectorized gather/``reduceat`` build, whose scratch
        matrix of gathered mask rows (``num_actions x row_bytes``) busts
        every cache level.  Returns the number of rows built.
        """
        if rows is None:
            rows = range(self.num_rows)
        num_bits, num_hashes = self.num_bits, self.num_hashes
        row_bytes = self.row_bytes
        mask_cache = geometry_mask_cache(num_bits, num_hashes)
        mask_cache_get = mask_cache.get
        buffer = self._rows
        versions = store.versions
        built = 0
        for row in rows:
            bits = 0
            for item in store.distinct_items_of_row(row):
                mask = mask_cache_get(item)
                if mask is None:
                    mask = mask_int(item, num_bits, num_hashes)
                bits |= mask
            start = row * row_bytes
            buffer[start : start + row_bytes] = pack_row(bits, num_bits)
            self._versions[row] = versions[row]
            built += 1
        return built

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the shared block (creator side: also unlinks it)."""
        if self._shm is not None:
            self._rows = None
            self._versions = None
            self._finalizer()
            self._shm = None


def _release_shared_block(shm, views, owner_pid) -> None:
    # Forked shard workers inherit the finalizer together with the matrix;
    # only the creating process may tear the block down (a child running
    # this at exit would unlink the segment under the parent).
    if os.getpid() != owner_pid:
        return
    for view in views:
        try:
            view.release()
        except (BufferError, ValueError):  # pragma: no cover - defensive
            pass
    views.clear()
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


class ColumnarDataset(Dataset):
    """A :class:`Dataset` backed by a :class:`ColumnarStore`.

    Profiles are materialized lazily through
    :meth:`UserProfile.from_columnar` -- bit-identical to the object
    pipeline's ``from_distinct_actions`` (same action order, same set
    layout, same version) -- so holding the dataset costs four flat arrays
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
