"""Bit-packed Bloom filter profile digests.

P3Q never ships a full profile before knowing it is worth shipping.  Each
node stores, for every neighbour in its personal network and random view, a
*digest* of that neighbour's profile: a Bloom filter over the set of items
the neighbour has tagged.  The digest answers "might this user have tagged an
item I also tagged?" which is the trigger for the heavier steps of the lazy
exchange.

The paper uses 20 Kbit filters for profiles of ~249 items on average, giving
a false-positive rate around 0.1%.  This implementation is a standard
partition-free Bloom filter with double hashing (Kirsch & Mitzenmacher), so
``k`` hash functions are derived from two base hashes.

Digest checks are the hottest operation of the whole simulator -- every
gossip cycle probes hundreds of digests against the receiver's item set -- so
the implementation is engineered for cheap probes (see
``docs/ARCHITECTURE.md`` for how this layer fits the rest of the system):

* **Bit-packed-integer storage.**  The whole bit array is one Python int.
  Inserting a key ORs in its precomputed ``k``-bit *probe mask*; a
  membership test is a single C-level ``bits & mask == mask`` -- no
  per-probe Python loop at all.
* **Integer double hashing.**  Item ids (small ints) are mixed with the
  splitmix64 finalizer -- a handful of integer multiplies -- instead of a
  ``hashlib`` digest of ``repr(key)``.  Non-integer keys keep the ``blake2b``
  path as a fallback.
* **Shared caches.**  The double-hash bases of a key are geometry-independent
  and memoized across all filters (:func:`hash_bases`); the k-bit probe masks
  they expand to are memoized per filter geometry.  Digest construction and
  membership tests touch the same item ids over and over, so after the first
  touch every operation is one dict hit plus one big-int instruction.

The original ``hashlib``-per-probe implementation is preserved as
:class:`repro.bloom._legacy.LegacyBloomFilter` for equivalence tests and as
the benchmark baseline.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Optional, Tuple

#: Sizing used in the paper's cost analysis: 20 Kbit per digest.
PAPER_DIGEST_BITS = 20_000

_MASK64 = (1 << 64) - 1

#: Shared cache of per-key double-hash bases ``(h1, h2)``.  The bases do not
#: depend on filter geometry (``num_bits``/``num_hashes``), so one cache
#: serves every filter in the process.  Bounded so adversarial key streams
#: cannot grow it without limit; in simulations the working set is the item
#: universe, which fits comfortably.
_HASH_BASES: Dict[object, Tuple[int, int]] = {}
_HASH_CACHE_LIMIT = 1 << 20

#: Per-geometry caches of probe masks: ``(num_bits, num_hashes) -> {key ->
#: k-bit int mask}``.  A mask is the OR of the key's ``k`` probe positions,
#: so insert and membership collapse to single big-int operations.  Int keys
#: are stored under the key itself; other types under ``(type, key)`` (the
#: same ``1``/``True``/``1.0`` separation as the hash-base cache).  A mask
#: costs ~``num_bits/8`` bytes of payload plus dict/key/int-object overhead,
#: so each geometry's entry cap is derived from a byte budget rather than a
#: flat count.
_MASKS: Dict[Tuple[int, int], Dict[object, int]] = {}
_MASK_CACHE_BYTES_PER_GEOMETRY = 128 << 20
#: Approximate per-entry bookkeeping cost: dict slot + key object + the
#: int header of the mask itself.
_MASK_ENTRY_OVERHEAD_BYTES = 128
_MASK_CACHE_MIN_ENTRIES = 1024


def _cache_key(key: object) -> object:
    """The dict key a cache entry for ``key`` is stored under, or ``None``.

    Int keys are stored raw; every other hashable type under ``(type, key)``
    so equal-but-distinct-type keys (``1``/``True``/``1.0``) never share an
    entry; unhashable keys return ``None`` (computed but never cached).
    Both shared caches MUST use this helper -- diverging dispatch rules
    would reintroduce the warm-up-order aliasing hazard.
    """
    if type(key) is int:
        return key
    try:
        hash(key)
    except TypeError:
        return None
    return (type(key), key)


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_bases(key: object) -> Tuple[int, int]:
    """The two double-hashing bases ``(h1, h2)`` for ``key``, memoized.

    ``h2`` is forced odd so that for power-free moduli the probe sequence
    ``h1 + i*h2`` still cycles through many distinct positions.  Unsigned
    integers in the 64-bit range use splitmix64 mixing; everything else
    (negative or huge ints, tuples, strings) falls back to ``blake2b`` over
    ``repr(key)`` exactly like the legacy filter -- the fast path must not
    truncate, or ``k`` and ``k + 2**64`` would alias to identical bases
    (a deterministic false positive the legacy filter never produced).

    Cache entries are keyed through :func:`_cache_key`: Python dicts treat
    ``1``, ``1.0`` and ``True`` as the same key, and letting e.g. ``True``
    hit an entry cached for ``1`` would make the bases depend on cache
    warm-up order -- a false-negative hazard once the cache is cleared.
    """
    cache_key = _cache_key(key)
    if cache_key is not None:
        bases = _HASH_BASES.get(cache_key)
        if bases is not None:
            return bases
    if type(key) is int and 0 <= key < (1 << 64):
        h1 = _mix64(key)
        h2 = _mix64(h1) | 1
    else:
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
    bases = (h1, h2)
    if cache_key is not None and len(_HASH_BASES) < _HASH_CACHE_LIMIT:
        _HASH_BASES[cache_key] = bases
    return bases


def clear_hash_cache() -> None:
    """Drop the shared hash-base and probe-mask caches.

    Safe at any time: the caches only memoize pure functions of the key
    (and filter geometry), so clearing them changes nothing observable
    except speed.  Mask dicts are cleared *in place* because live filters
    hold references to them; those filters simply re-populate on use.
    """
    _HASH_BASES.clear()
    for masks in _MASKS.values():
        masks.clear()


def pack_row(bits: int, num_bits: int) -> bytes:
    """A packed bit array as its wire *row*: raw filter bits,
    little-endian, ``ceil(num_bits / 8)`` bytes.

    The one spelling of the layout shared by the wire codec's digest
    entries and :meth:`BloomFilter.row_bytes`;
    :meth:`BloomFilter.from_row` is its inverse.
    """
    return bits.to_bytes((num_bits + 7) // 8, "little")


def optimal_num_hashes(num_bits: int, expected_items: int) -> int:
    """The false-positive-minimizing number of hash functions ``k``.

    ``k = (m/n) ln 2`` rounded to the nearest integer and clamped to >= 1.
    """
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    if expected_items <= 0:
        return 1
    k = round((num_bits / expected_items) * math.log(2))
    return max(1, int(k))


def optimal_num_bits(expected_items: int, false_positive_rate: float) -> int:
    """Bits needed for a target false-positive rate at ``expected_items``."""
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    if expected_items <= 0:
        return 8
    bits = -expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)
    return max(8, int(math.ceil(bits)))


class BloomFilter:
    """A Bloom filter over integer (or otherwise hashable) keys.

    The filter guarantees *no false negatives*: every added key is reported
    as (possibly) present.  False positives occur with a probability that
    depends on the fill ratio; :meth:`estimated_false_positive_rate` reports
    the standard estimate.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_count", "_masks", "_mask_limit", "_row")

    def __init__(self, num_bits: int = PAPER_DIGEST_BITS, num_hashes: int = 14) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        #: The bit array, packed into one arbitrary-precision integer.
        self._bits = 0
        self._count = 0
        #: Memoised :meth:`row_bytes` of the current bits (``None``: not
        #: serialised since the last insert).
        self._row: Optional[bytes] = None
        #: The shared probe-mask cache for this filter's geometry, capped so
        #: the cache costs at most ~_MASK_CACHE_BYTES_PER_GEOMETRY bytes.
        self._masks = _MASKS.setdefault((num_bits, num_hashes), {})
        self._mask_limit = max(
            _MASK_CACHE_MIN_ENTRIES,
            _MASK_CACHE_BYTES_PER_GEOMETRY
            // ((num_bits + 7) // 8 + _MASK_ENTRY_OVERHEAD_BYTES),
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def for_capacity(cls, expected_items: int, false_positive_rate: float = 0.001) -> "BloomFilter":
        """Size a filter for ``expected_items`` at the target FP rate."""
        bits = optimal_num_bits(expected_items, false_positive_rate)
        hashes = optimal_num_hashes(bits, expected_items)
        return cls(num_bits=bits, num_hashes=hashes)

    @classmethod
    def from_items(
        cls,
        items: Iterable[object],
        num_bits: int = PAPER_DIGEST_BITS,
        num_hashes: int = 14,
    ) -> "BloomFilter":
        """Build a filter containing every element of ``items``."""
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        bloom.update(items)
        return bloom

    # -- core operations ------------------------------------------------------

    def probe_mask(self, key: object) -> int:
        """The OR of ``key``'s ``k`` probe bits, memoized per geometry.

        ``key`` is (possibly) present iff ``raw_bits & mask == mask``.  The
        mask is the one object every filter of the geometry probes and
        inserts with, so a caller that keeps it per key (the probe rows of
        :class:`repro.gossip.digest.DigestCache`) holds a reference, not a
        copy.
        """
        masks = self._masks
        cache_key = _cache_key(key)
        mask = masks.get(cache_key) if cache_key is not None else None
        if mask is None:
            h1, h2 = hash_bases(key)
            num_bits = self.num_bits
            mask = 0
            for _ in range(self.num_hashes):
                mask |= 1 << (h1 % num_bits)
                h1 += h2
            if cache_key is not None and len(masks) < self._mask_limit:
                masks[cache_key] = mask
        return mask

    def add(self, key: object) -> None:
        """Insert ``key`` into the filter."""
        self._bits |= self.probe_mask(key)
        self._count += 1
        self._row = None

    def update(self, keys: Iterable[object]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: object) -> bool:
        mask = self.probe_mask(key)
        return self._bits & mask == mask

    def might_contain(self, key: object) -> bool:
        """Alias of ``key in filter`` with the probabilistic semantics spelt out."""
        return key in self

    def intersects(self, keys: Iterable[object]) -> bool:
        """True if *any* of ``keys`` might be in the filter.

        This is the digest test of P3Q's lazy mode: a random-view neighbour is
        contacted for her full profile only if her digest contains at least one
        item the local user also tagged.
        """
        return any(key in self for key in keys)

    # -- state transfer -------------------------------------------------------

    @property
    def raw_bits(self) -> int:
        """The packed bit array as an int (state transfer between processes)."""
        return self._bits

    def row_bytes(self) -> bytes:
        """The bit array as its :func:`pack_row` row, serialised at most once.

        A digest is an immutable snapshot that every holder re-advertises
        round after round; the row is memoised on the filter (and dropped
        by the next insert), so all of them append the same ``bytes``
        object instead of each re-serialising -- or each caching -- its own.
        """
        row = self._row
        if row is None:
            row = self._row = pack_row(self._bits, self.num_bits)
        return row

    @classmethod
    def from_state(
        cls, num_bits: int, num_hashes: int, bits: int, count: int
    ) -> "BloomFilter":
        """Rebuild a filter from ``(raw_bits, approximate_count)``.

        The inverse of reading :attr:`raw_bits` / :attr:`approximate_count`:
        used to adopt a filter that travelled as those two integers.  The
        bit array must fit the geometry's row: a negative integer would
        report every key present, and neither it nor a wider one has a
        :meth:`row_bytes`.
        """
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        if bits < 0 or bits.bit_length() > 8 * bloom.size_in_bytes:
            raise ValueError(
                f"the bit array of a {num_bits}-bit filter must be a non-negative "
                f"integer that fits its {bloom.size_in_bytes}-byte row"
            )
        bloom._bits = bits
        bloom._count = count
        return bloom

    @classmethod
    def from_row(
        cls, num_bits: int, num_hashes: int, row: bytes, count: int
    ) -> "BloomFilter":
        """Adopt a decoded wire row (the inverse of :meth:`row_bytes`).

        The row is the little-endian byte image of the packed bit array --
        by construction the OR of the same per-item probe masks ``update``
        would have ORed -- so the resulting filter is bit-identical to one
        built item by item.  ``count`` is the number of distinct items the
        row encodes.  A ``bytes`` row of the geometry's exact width is kept
        as the filter's memoised :meth:`row_bytes` (it *is* that value).
        """
        bloom = cls.from_state(num_bits, num_hashes, int.from_bytes(row, "little"), count)
        if type(row) is bytes and len(row) == bloom.size_in_bytes:
            bloom._row = row
        return bloom

    # -- introspection --------------------------------------------------------

    @property
    def approximate_count(self) -> int:
        """Number of ``add`` calls (duplicates counted once per call)."""
        return self._count

    @property
    def size_in_bytes(self) -> int:
        """Wire / storage size of the bit array (the cost-model quantity)."""
        return (self.num_bits + 7) // 8

    def fill_ratio(self) -> float:
        """Fraction of bits set to one."""
        return self._bits.bit_count() / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """Standard estimate ``(1 - e^{-kn/m})^k`` using the insert count."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"inserted={self._count}, fill={self.fill_ratio():.3f})"
        )

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.num_bits, self.num_hashes)
        clone._bits = self._bits  # ints are immutable: sharing is a deep copy
        clone._count = self._count
        return clone
