"""Profile digests: versioned Bloom filters over a profile's items.

A digest is what circulates in gossip *instead of* the full profile.  It
answers two questions cheaply:

* "does this user share at least one item with me?" -- the trigger for the
  similarity computation in the lazy exchange;
* "has this user's profile changed since I last looked?" -- via the version
  counter, which avoids re-exchanging unchanged profiles (Algorithm 1,
  lines 4-6).

Digest probes ride the bit-packed-integer :class:`repro.bloom.BloomFilter`:
membership is one C-level big-int ``AND`` against the key's cached probe
mask, with masks and hash bases memoized process-wide and shared between
digest construction and probing (see ``docs/ARCHITECTURE.md``).  ``common_items_with`` exposes
the one-pass "which of my items might she have?" probe that step 2 of the
lazy exchange is built on; :class:`DigestCache` prices the same question
for a whole simulation, reading each digest in the one other form it
already has -- the wire row its holders send.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..bloom import PAPER_DIGEST_BITS, BloomFilter, hash_bases
from ..data.models import UserProfile
from .sizes import DIGEST_BYTES


#: Shared empty common-item set (most probes find nothing in common).
_EMPTY_ITEMS: "FrozenSet[int]" = frozenset()

#: One priced (receiver, subject) pair as :meth:`DigestCache.record_pricing`
#: taps it: ``(receiver_id, receiver_version, subject_id, digest_version,
#: common)``.
PricedPair = Tuple[int, int, int, int, FrozenSet[int]]


@dataclass(frozen=True)
class ProfileDigest:
    """A snapshot digest of one user's profile."""

    user_id: int
    version: int
    bloom: BloomFilter

    def might_contain_item(self, item: int) -> bool:
        return item in self.bloom

    def shares_item_with(self, items: Iterable[int]) -> bool:
        """True if the digest (probably) contains any of ``items``."""
        return self.bloom.intersects(items)

    def common_items_with(self, items: Iterable[int]) -> Set[int]:
        """The subset of ``items`` the digest (probably) contains.

        This is the candidate common-item set of step 2 of the lazy exchange:
        a superset of the true common items (Bloom false positives included,
        false negatives impossible).
        """
        bloom = self.bloom
        return {item for item in items if item in bloom}

    @property
    def size_in_bytes(self) -> int:
        """Wire size: the paper's 20 Kbit constant, not the actual bit array.

        Keeping the accounting constant-size matches the paper's cost model
        even when tests use small filters.
        """
        return DIGEST_BYTES

    def same_version_as(self, other: "ProfileDigest") -> bool:
        return self.user_id == other.user_id and self.version == other.version


def make_digest(
    profile: UserProfile,
    num_bits: int = PAPER_DIGEST_BITS,
    num_hashes: int = 14,
) -> ProfileDigest:
    """Build the digest of a profile: a Bloom filter over its items."""
    bloom = BloomFilter.from_items(profile.items, num_bits=num_bits, num_hashes=num_hashes)
    return ProfileDigest(user_id=profile.user_id, version=profile.version, bloom=bloom)


#: Process-wide intern table of digests that arrived as bytes: full content
#: ``(user_id, version, num_bits, num_hashes, count, row)`` -> the one
#: :class:`ProfileDigest` object holding it.  Weak-valued: an entry lives
#: exactly as long as some view, in-flight message or codec reference LRU
#: holds the digest, so the table needs no bound of its own.
_INTERNED: "weakref.WeakValueDictionary[tuple, ProfileDigest]" = weakref.WeakValueDictionary()


def intern_digest(
    user_id: int, version: int, num_bits: int, num_hashes: int, count: int, row: bytes
) -> ProfileDigest:
    """The shared :class:`ProfileDigest` of a received digest row.

    A digest is an immutable snapshot that every node of the overlay
    re-advertises, so N in-process receivers decode the same <= N distinct
    rows over and over; resolving them here keeps one object (one 20 Kbit
    integer) per digest instead of one per receiver.  The key is the *whole*
    content, row bytes included: a forged row under an honest ``(user_id,
    version)`` is a different key and can never alias the honest digest.
    ``row`` is the filter's :meth:`~repro.bloom.BloomFilter.row_bytes`
    (callers bound the geometry and the row length first).
    """
    key = (user_id, version, num_bits, num_hashes, count, row)
    digest = _INTERNED.get(key)
    if digest is None:
        bloom = BloomFilter.from_row(num_bits, num_hashes, row, count)
        digest = ProfileDigest(user_id=user_id, version=version, bloom=bloom)
        _INTERNED[key] = digest
    return digest


class DigestCache:
    """Simulation-wide incremental cache of digests and digest probes.

    One instance is shared by every node of a simulation (and by the lazy
    exchange and eager gossip protocols riding it).  It maintains three
    version-keyed structures, each rebuilt only when the underlying
    :class:`~repro.data.models.UserProfile` version bumps:

    * **digests** -- ``user_id -> ProfileDigest`` of that user's *current*
      profile.  Replaces per-node digest rebuilding: a node's 20 Kbit Bloom
      filter is constructed once per profile version for the whole system.
    * **probe rows** -- ``user_id -> ((byte_index, bit, item, probe_mask),
      ...)`` for the user's item set, in the cache's digest geometry, plus
      the OR of the items' first probe bits.  These are the precomputed
      left-hand sides of batch membership tests.  The right-hand side is
      the digest itself, in the two forms it already has: its packed
      integer and its wire row (:meth:`BloomFilter.row_bytes`, memoised on
      the filter, so every circulating version of a user's digest carries
      its own and nothing here is keyed by the subject).  Pricing one pair
      is one big-int AND against the first-bits mask, which ends a pair
      sharing none of them, then a byte test of the row per item; only an
      item whose first bit is set pays the full 20 Kbit probe.
    * **common-item memo** -- one row per receiver: ``receiver_id ->
      (receiver_version, {subject_id: (digest_version, common_items)})``.
      A digest that was already probed by the same receiver at the same
      profile versions is never probed again, which turns steady-state view
      maintenance from O(N·s) Bloom probes per cycle into O(changes).  A
      hit allocates nothing (no key tuple), and a receiver whose version
      moved loses her whole row at once: on :meth:`evict_profiles`, or on
      the next store under her new version.  Non-empty values are interned
      through a value table (``value -> the one object``): receivers that
      price equal common-item sets hold the *same* frozenset, which is
      also the key their step-2 requests share in the subject's reply memo.

    Every lookup validates versions, so *stale reads are impossible by
    construction*; explicit invalidation (:meth:`evict_profiles`, driven by
    the engine's post-cycle dirty-set flush) only reclaims memory held by
    superseded entries.  The memo keeps at most one entry per (receiver,
    subject) pair and no entry of a superseded receiver version, so memory
    is bounded by the number of pairs that actually gossip, not by version
    churn.
    """

    #: Cap on the (receiver, subject) common-item memo.  The memo exists for
    #: pairs that gossip repeatedly; at large N the stream of one-shot
    #: random-view pairs would otherwise grow it without bound.  Overflow
    #: clears the memo wholesale -- correctness is version-checked on every
    #: read, so the only effect is a transient dip in hit rate.  Counted in
    #: pairs (``_common_pairs``), not rows.
    MAX_COMMON_PAIRS = 1 << 19

    def __init__(
        self,
        num_bits: int = PAPER_DIGEST_BITS,
        num_hashes: int = 14,
    ) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("digest geometry must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._digests: Dict[int, ProfileDigest] = {}
        #: When not ``None``, every memo *miss* also appends its
        #: ``(receiver_id, receiver_version, subject_id, digest_version,
        #: common_items)`` entry here (see :meth:`record_pricing`).
        self._recorder: Optional[List[PricedPair]] = None
        #: user_id -> (profile_version, ((byte_index, bit, item, probe_mask),
        #: ...), firsts_mask): per item, where its first probe bit sits in a
        #: digest's wire row and the geometry's shared probe mask; the OR of
        #: those first bits lets one big-int AND reject a digest that has
        #: none of them before any per-item work happens.
        self._rows: Dict[int, Tuple[int, Tuple[Tuple[int, int, int, int], ...], int]] = {}
        #: receiver user_id -> (receiver_version, {subject user_id ->
        #: (digest_version, common items)}); ``_common_pairs`` counts the
        #: inner entries of all rows.
        self._common: Dict[int, Tuple[int, Dict[int, Tuple[int, FrozenSet[int]]]]] = {}
        self._common_pairs = 0
        #: Non-empty common-items value -> the one object every pair holding
        #: that value shares.  Cleared with the memo and never larger than
        #: it: the table does not track holders, so when dropped or re-priced
        #: pairs leave it above the pair count it is emptied (surviving pairs
        #: keep their objects, only later equal values stop finding them).
        self._common_values: Dict[FrozenSet[int], FrozenSet[int]] = {}

    # -- digests --------------------------------------------------------------

    def digest_for(self, profile: UserProfile) -> ProfileDigest:
        """The digest of ``profile``'s current version, built at most once."""
        cached = self._digests.get(profile.user_id)
        if cached is None or cached.version != profile.version:
            cached = make_digest(
                profile, num_bits=self.num_bits, num_hashes=self.num_hashes
            )
            self._digests[profile.user_id] = cached
        return cached

    # -- batch probing --------------------------------------------------------

    def common_items(self, receiver: UserProfile, digest: ProfileDigest) -> FrozenSet[int]:
        """The receiver's items that ``digest`` (probably) contains, memoized.

        Semantically identical to ``digest.common_items_with(receiver.items)``
        (same Bloom filter, same probe masks) but priced incrementally: the
        receiver's probe rows are cached per profile version, and a
        (receiver, subject) pair is re-probed only when either side's
        version changed since the last probe.  A probe reads one byte of the
        digest's own wire row -- the item's first probe bit -- and runs the
        full ``bits & mask == mask`` only when that bit is set.
        """
        bloom = digest.bloom
        if bloom.num_bits != self.num_bits or bloom.num_hashes != self.num_hashes:
            # Foreign geometry (mixed-config tests): fall back to direct probes.
            return frozenset(digest.common_items_with(receiver.items))
        row = self._common.get(receiver.user_id)
        if row is not None and row[0] == receiver.version:
            memo = row[1].get(digest.user_id)
            if memo is not None and memo[0] == digest.version:
                return memo[1]
        # Inlined row lookup: this is the hottest miss path of the whole
        # runtime, and every extra frame showed up in profiles.
        rows_entry = self._rows.get(receiver.user_id)
        if rows_entry is None or rows_entry[0] != receiver.version:
            num_bits = self.num_bits
            probe_mask = bloom.probe_mask
            probes = []
            firsts_mask = 0
            for item in receiver.items:
                first = hash_bases(item)[0] % num_bits
                firsts_mask |= 1 << first
                probes.append((first >> 3, 1 << (first & 7), item, probe_mask(item)))
            rows_entry = (receiver.version, tuple(probes), firsts_mask)
            self._rows[receiver.user_id] = rows_entry
        bits = bloom.raw_bits
        # One big-int AND rejects a digest with none of the receiver's first
        # probe bits set (a third to a half of all misses); otherwise each
        # item costs one byte of the digest's wire row, and only those whose
        # first bit is set pay a full probe.
        if not bits & rows_entry[2]:
            common: FrozenSet[int] = _EMPTY_ITEMS
        else:
            wire_row = bloom.row_bytes()
            common = frozenset(
                {
                    item
                    for byte_index, bit, item, mask in rows_entry[1]
                    if wire_row[byte_index] & bit and bits & mask == mask
                }
            )
        common = self._store_common(
            receiver.user_id, receiver.version, digest.user_id, digest.version, common
        )
        if self._recorder is not None:
            self._recorder.append(
                (receiver.user_id, receiver.version, digest.user_id, digest.version, common)
            )
        return common

    def shares_item(self, receiver: UserProfile, digest: ProfileDigest) -> bool:
        """Whether ``digest`` shares at least one item with the receiver.

        Same truth value as ``digest.shares_item_with(receiver.items)``; goes
        through the memoized common-item set so the answer is free when the
        pair was already probed (and primes the memo when it was not).
        """
        return bool(self.common_items(receiver, digest))

    # -- measurement tap ------------------------------------------------------

    def record_pricing(self, sink: Optional[List["PricedPair"]]) -> None:
        """Start (or, with ``None``, stop) recording memo misses into ``sink``.

        A measurement tap: the end-to-end benchmark counts misses through it
        to report the memo's hit rate where the work happens.
        """
        self._recorder = sink

    def _store_common(
        self,
        receiver_id: int,
        receiver_version: int,
        subject_id: int,
        digest_version: int,
        common: FrozenSet[int],
    ) -> FrozenSet[int]:
        """Remember one priced pair in its receiver's row; returns its value.

        A row belongs to one receiver version: storing under another
        version replaces the row, pairs and all (once her profile moved
        they can never be read again).  The returned object is the one the
        value table keeps for ``common``'s value.
        """
        memo_map = self._common
        if self._common_pairs >= self.MAX_COMMON_PAIRS:
            self._clear_common()
        row = memo_map.get(receiver_id)
        if row is None or row[0] != receiver_version:
            if row is not None:
                self._common_pairs -= len(row[1])
            row = memo_map[receiver_id] = (receiver_version, {})
        pairs = row[1]
        if subject_id not in pairs:
            self._common_pairs += 1
        values = self._common_values
        if common:
            common = values.setdefault(common, common)
        pairs[subject_id] = (digest_version, common)
        if len(values) > self._common_pairs:
            values.clear()
        return common

    def _clear_common(self) -> None:
        self._common.clear()
        self._common_values.clear()
        self._common_pairs = 0

    # -- invalidation ---------------------------------------------------------

    def evict_profiles(self, user_ids: Iterable[int]) -> None:
        """Drop cached state of users whose profiles changed (memory hygiene).

        Correctness never depends on this -- every read re-validates versions
        -- but superseded digests and probe rows of churned-through profiles
        would otherwise linger until the next touch.  The engine flushes the
        per-cycle dirty set here at each cycle boundary.
        """
        for user_id in user_ids:
            self._digests.pop(user_id, None)
            self._rows.pop(user_id, None)
            row = self._common.pop(user_id, None)
            if row is not None:
                self._common_pairs -= len(row[1])
        if len(self._common_values) > self._common_pairs:
            self._common_values.clear()

    def clear(self) -> None:
        self._digests.clear()
        self._rows.clear()
        self._clear_common()

    def stats(self) -> Dict[str, int]:
        """Cache occupancy counters (exposed for tests and diagnostics)."""
        return {
            "digests": len(self._digests),
            "rows": len(self._rows),
            "common_pairs": self._common_pairs,
            "common_values": len(self._common_values),
        }
