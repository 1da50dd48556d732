"""Bloom filter profile digests, held as their wire rows.

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

* **One form of the bits: the wire row.**  A filter holds its bit array
  as the little-endian ``bytes`` row the codec sends, and nothing else;
  construction sets bits in a ``bytearray`` and freezes it, and a probe
  tests one byte per probe position, stopping at the first clear bit.
* **Integer double hashing.**  Item ids (small ints) are mixed with the
  splitmix64 finalizer -- a handful of integer multiplies -- instead of a
  ``hashlib`` digest of ``repr(key)``.  Non-integer keys keep the ``blake2b``
  path as a fallback.
* **Shared caches.**  The double-hash bases of a key are geometry-independent
  and memoized across all filters (:func:`hash_bases`); the ``k`` probe
  positions they expand to are memoized per filter geometry.  Digest
  construction and membership tests touch the same item ids over and over,
  so after the first touch a key costs one dict hit plus its byte tests.

The original ``hashlib``-per-probe implementation is preserved as
:class:`repro.bloom._legacy.LegacyBloomFilter` for equivalence tests and as
the benchmark baseline.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

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

#: Per-geometry caches of probe positions: ``(num_bits, num_hashes) ->
#: {key -> the key's k bit positions}``.  A key's positions are the one
#: per-key probe form: insertion sets those bits of a row, membership tests
#: them.  Int keys are stored under the key itself; other types under
#: ``(type, key)`` (the same ``1``/``True``/``1.0`` separation as the
#: hash-base cache).  Each geometry's entry cap is derived from a byte
#: budget, at about ``_POSITION_ENTRY_BYTES + _POSITION_BYTES * k`` bytes
#: an entry (dict slot, key, tuple, and one int object per position).
_POSITIONS: Dict[Tuple[int, int], Dict[object, Tuple[int, ...]]] = {}
_POSITION_CACHE_BYTES_PER_GEOMETRY = 128 << 20
_POSITION_ENTRY_BYTES = 128
_POSITION_BYTES = 40


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
    """Drop the shared hash-base and probe-position caches.

    Safe at any time: the caches only memoize pure functions of the key
    (and filter geometry), so clearing them changes nothing observable
    except speed.  Position dicts are cleared *in place* because live
    filters hold references to them; those filters simply re-populate on
    use.
    """
    _HASH_BASES.clear()
    for positions in _POSITIONS.values():
        positions.clear()


class BloomFilter:
    """An immutable Bloom filter over integer (or otherwise hashable) keys.

    The filter guarantees *no false negatives*: every key it was built from
    is reported as (possibly) present.  False positives occur with a
    probability that depends on the fill ratio, ``(1 - e^{-kn/m})^k`` for
    ``n`` keys.  ``BloomFilter(num_bits, num_hashes)`` is the empty filter;
    :meth:`from_items` and :meth:`from_row` build the others.
    """

    __slots__ = ("num_bits", "num_hashes", "_count", "_positions", "_row")

    def __init__(self, num_bits: int = PAPER_DIGEST_BITS, num_hashes: int = 14) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._count = 0
        #: The shared probe-position cache of this filter's geometry.
        self._positions = _POSITIONS.setdefault((num_bits, num_hashes), {})
        #: The bit array as its wire row: little-endian, ``ceil(num_bits /
        #: 8)`` bytes.  The one form of the filter's bits.
        self._row = bytes(self.size_in_bytes)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_items(
        cls,
        items: Iterable[object],
        num_bits: int = PAPER_DIGEST_BITS,
        num_hashes: int = 14,
    ) -> "BloomFilter":
        """Build a filter containing every element of ``items``.

        :attr:`approximate_count` is the number of elements, duplicates
        counted once per occurrence.
        """
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        row = bytearray(bloom.size_in_bytes)
        count = 0
        probe_positions = bloom.probe_positions
        for key in items:
            for position in probe_positions(key):
                row[position >> 3] |= 1 << (position & 7)
            count += 1
        bloom._row = bytes(row)
        bloom._count = count
        return bloom

    @classmethod
    def from_row(
        cls, num_bits: int, num_hashes: int, row: bytes, count: int
    ) -> "BloomFilter":
        """Adopt a decoded wire row (the inverse of :meth:`row_bytes`).

        ``count`` is the number of distinct items the row encodes.  The row
        must be exactly :attr:`size_in_bytes` long; a ``bytes`` row then
        *is* the filter's row and is kept as it is, so the filter holds no
        copy.
        """
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        width = bloom.size_in_bytes
        if len(row) != width:
            raise ValueError(
                f"the row of a {num_bits}-bit filter is {width} bytes, not {len(row)}"
            )
        bloom._row = bytes(row)
        bloom._count = count
        return bloom

    # -- probing --------------------------------------------------------------

    def probe_positions(self, key: object) -> Tuple[int, ...]:
        """``key``'s ``k`` bit positions ``(h1 + i*h2) mod num_bits``,
        memoized per geometry.

        ``key`` is (possibly) present iff every one of them is set in the
        row.  The tuple is the one object every filter of the geometry
        probes and builds with, so a caller that keeps it per key (the
        probe rows of :class:`repro.gossip.digest.DigestCache`) holds a
        reference, not a copy.
        """
        cache = self._positions
        cache_key = _cache_key(key)
        positions = cache.get(cache_key) if cache_key is not None else None
        if positions is None:
            h1, h2 = hash_bases(key)
            num_bits = self.num_bits
            positions = tuple((h1 + i * h2) % num_bits for i in range(self.num_hashes))
            limit = _POSITION_CACHE_BYTES_PER_GEOMETRY // (
                _POSITION_ENTRY_BYTES + _POSITION_BYTES * self.num_hashes
            )
            if cache_key is not None and len(cache) < limit:
                cache[cache_key] = positions
        return positions

    def __contains__(self, key: object) -> bool:
        row = self._row
        for position in self.probe_positions(key):
            if not row[position >> 3] >> (position & 7) & 1:
                return False
        return True

    # -- state transfer -------------------------------------------------------

    def row_bytes(self) -> bytes:
        """The bit array as its wire row: raw filter bits, little-endian,
        ``ceil(num_bits / 8)`` bytes.

        The filter's one form of its bits, so every holder of a digest
        sends -- and probes -- the same ``bytes`` object.
        """
        return self._row

    # -- introspection --------------------------------------------------------

    @property
    def approximate_count(self) -> int:
        """Number of keys the filter was built from (duplicates counted
        once per occurrence)."""
        return self._count

    @property
    def size_in_bytes(self) -> int:
        """Wire / storage size of the bit array (the cost-model quantity)."""
        return (self.num_bits + 7) // 8
