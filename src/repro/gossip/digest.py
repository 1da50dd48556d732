"""Profile digests: versioned Bloom filters over a profile's items.

A digest is what circulates in gossip *instead of* the full profile.  It
answers two questions cheaply:

* "does this user share at least one item with me?" -- the trigger for the
  similarity computation in the lazy exchange;
* "has this user's profile changed since I last looked?" -- via the version
  counter, which avoids re-exchanging unchanged profiles (Algorithm 1,
  lines 4-6).

Digest probes ride :class:`repro.bloom.BloomFilter`, whose one form of its
bits is the wire row its holders send: membership is a byte test of that row
per probe position, with positions and hash bases memoized process-wide and
shared between digest construction and probing (see
``docs/ARCHITECTURE.md``).  :class:`DigestCache` prices the "which of my
items might she have?" probe that step 2 of the lazy exchange is built on
for a whole simulation, reading each digest in that row.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..bloom import PAPER_DIGEST_BITS, BloomFilter
from ..data.models import UserProfile


#: Shared empty common-item set (most probes find nothing in common).
_EMPTY_ITEMS: "FrozenSet[int]" = frozenset()

#: One priced (receiver, subject) pair as :meth:`DigestCache.record_pricing`
#: taps it: ``(receiver_id, receiver_version, subject_id, digest_version,
#: common)``.
PricedPair = Tuple[int, int, int, int, FrozenSet[int]]


@dataclass(frozen=True)
class ProfileDigest:
    """A snapshot digest of one user's profile.

    Its hash is computed once, the first time it is asked for: the service
    trace hashes every digest of every advertisement it records.  The value is the
    dataclass hash of the three fields (the filter by identity), so equal
    digests hash equal.
    """

    user_id: int
    version: int
    bloom: BloomFilter

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.user_id, self.version, self.bloom))
            object.__setattr__(self, "_hash", value)
            return value


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
#: exactly as long as some personal-network entry or in-flight message
#: holds the digest, so the table needs no bound of its own.
_INTERNED: "weakref.WeakValueDictionary[tuple, ProfileDigest]" = weakref.WeakValueDictionary()


def intern_digest(
    user_id: int, version: int, num_bits: int, num_hashes: int, count: int, row: bytes
) -> ProfileDigest:
    """The shared :class:`ProfileDigest` of a received digest row.

    A digest is an immutable snapshot that every node of the overlay
    re-advertises, so N in-process receivers decode the same <= N distinct
    rows over and over; resolving them here keeps one object (one 20 Kbit
    row) per digest instead of one per receiver.  The key is the *whole*
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
    * **probe rows** -- ``user_id -> ((byte_index, bit, item, positions),
      ...)`` for the user's item set, in the cache's digest geometry: per
      item, where its first probe bit sits in a digest's row and the
      geometry's shared position tuple.  These are the precomputed
      left-hand sides of batch membership tests.  The right-hand side is
      the digest's one form, its wire row (:meth:`BloomFilter.row_bytes`):
      every circulating version of a user's digest carries its own, so
      nothing here is keyed by the subject.  Pricing one pair is one byte
      test of the row per item; only an item whose first bit is set has
      its remaining positions tested.
    * **common-item memo** -- one row per receiver: ``receiver_id ->
      (receiver_version, {subject_id: (digest_version, common_items)})``.
      A digest that was already probed by the same receiver at the same
      profile versions is never probed again, which turns steady-state view
      maintenance from O(N·s) Bloom probes per cycle into O(changes).  A
      hit allocates nothing (no key tuple), and a receiver whose version
      moved loses her whole row at once: on :meth:`evict_profiles`, or on
      the next store under her new version.  Non-empty values are interned
      through a value table (``value -> the one object``): receivers that
      price equal common-item sets hold the *same* frozenset.  Only the
      exchange path prices through the memo (:meth:`common_items`): it
      re-screens known neighbours, and it drops an offered candidate
      whose remembered answer is empty before pulling its row
      (:meth:`memoized`).  A random-view candidate is priced once
      per digest version and never asked again, so it takes the unmemoised
      :meth:`probe` and leaves no entry.

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
    #: advertised candidates would otherwise grow it without bound.  Overflow
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
        #: user_id -> (profile_version, ((byte_index, bit, item, positions),
        #: ...)): per item, where its first probe bit sits in a digest's
        #: row and the geometry's shared probe positions.
        self._rows: Dict[int, Tuple[int, Tuple[Tuple[int, int, int, Tuple[int, ...]], ...]]] = {}
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

        :meth:`probe`'s answer, remembered per (receiver, subject) pair: the
        pair is re-probed only when either side's version changed since
        the last probe.  A digest in a foreign geometry is probed and not
        remembered.
        """
        bloom = digest.bloom
        if bloom.num_bits != self.num_bits or bloom.num_hashes != self.num_hashes:
            return self.probe(receiver, digest)
        common = self.memoized(receiver, digest.user_id, digest.version)
        if common is not None:
            return common
        common = self._store_common(
            receiver.user_id, receiver.version, digest.user_id, digest.version,
            self.probe(receiver, digest),
        )
        if self._recorder is not None:
            self._recorder.append(
                (receiver.user_id, receiver.version, digest.user_id, digest.version, common)
            )
        return common

    def memoized(
        self, receiver: UserProfile, subject_id: int, version: int
    ) -> Optional[FrozenSet[int]]:
        """What :meth:`common_items` remembers for ``receiver`` at her
        current version and ``subject_id``'s digest at ``version``, or
        ``None``.  Read-only: it probes nothing and stores nothing."""
        row = self._common.get(receiver.user_id)
        if row is not None and row[0] == receiver.version:
            memo = row[1].get(subject_id)
            if memo is not None and memo[0] == version:
                return memo[1]
        return None

    def probe(self, receiver: UserProfile, digest: ProfileDigest) -> FrozenSet[int]:
        """The receiver's items that ``digest`` (probably) contains, unmemoized.

        Semantically identical to probing each of ``receiver.items`` against
        ``digest.bloom`` (same Bloom filter, same probe positions), but
        priced against the receiver's probe rows, cached per profile
        version.  A probe reads one byte of the digest's wire row -- the
        item's first probe bit -- and tests the item's other positions only
        when that bit is set.
        """
        bloom = digest.bloom
        if bloom.num_bits != self.num_bits or bloom.num_hashes != self.num_hashes:
            # Foreign geometry (mixed-config tests): fall back to direct probes.
            return frozenset(item for item in receiver.items if item in bloom)
        # Inlined row lookup: this is the hottest miss path of the whole
        # runtime, and every extra frame showed up in profiles.
        rows_entry = self._rows.get(receiver.user_id)
        if rows_entry is None or rows_entry[0] != receiver.version:
            probe_positions = bloom.probe_positions
            probes = []
            for item in receiver.items:
                positions = probe_positions(item)
                first = positions[0]
                probes.append((first >> 3, 1 << (first & 7), item, positions))
            rows_entry = (receiver.version, tuple(probes))
            self._rows[receiver.user_id] = rows_entry
        # Each item costs one byte of the digest's wire row; only those whose
        # first bit is set (~3 of 21-25 per miss) test their other positions,
        # in a plain loop (a generator per candidate cost more than its tests).
        wire_row = bloom.row_bytes()
        found = []
        for byte_index, bit, item, positions in rows_entry[1]:
            if wire_row[byte_index] & bit:
                for position in positions:
                    if not wire_row[position >> 3] >> (position & 7) & 1:
                        break
                else:
                    found.append(item)
        return frozenset(found) if found else _EMPTY_ITEMS

    # -- measurement tap ------------------------------------------------------

    def record_pricing(self, sink: Optional[List["PricedPair"]]) -> None:
        """Start (or, with ``None``, stop) recording memo misses into ``sink``.

        A measurement tap: the end-to-end benchmark counts misses through it
        to report the memo's hit rate where the work happens.  Only misses
        of :meth:`common_items` are recorded, never a :meth:`probe` call:
        the rate's denominator is the calls of :meth:`common_items`.
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
