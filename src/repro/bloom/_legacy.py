"""The original ``hashlib``-based Bloom filter, kept as a reference.

This module preserves the seed implementation of the profile digest: a
``bytearray``-backed Bloom filter whose two double-hashing bases are derived
from a fresh ``blake2b`` digest of ``repr(key)`` on *every* probe.  It is no
longer used by the protocol code -- :mod:`repro.bloom.bloom` replaced it with
a filter held as its wire row and shared hash-base and probe-position
caches -- but it stays in the tree
for two purposes:

* the equivalence property tests (``tests/test_bloom_equivalence.py``) assert
  that the fast filter preserves the legacy filter's observable behaviour
  (no false negatives, comparable false-positive rates, identical sizing
  and insert counting);
* the performance harness (``benchmarks/perf``) measures the fast filter's
  speedup against this implementation, which is the baseline quoted in
  ``BENCH_p3q.json``.

Do not use this class in protocol code; import :class:`repro.bloom.BloomFilter`
instead.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Tuple

from .bloom import PAPER_DIGEST_BITS


class LegacyBloomFilter:
    """The seed repository's Bloom filter (per-probe ``hashlib`` hashing)."""

    __slots__ = ("num_bits", "num_hashes", "_bits", "_count")

    def __init__(self, num_bits: int = PAPER_DIGEST_BITS, num_hashes: int = 14) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def from_items(
        cls,
        items: Iterable[object],
        num_bits: int = PAPER_DIGEST_BITS,
        num_hashes: int = 14,
    ) -> "LegacyBloomFilter":
        bloom = cls(num_bits=num_bits, num_hashes=num_hashes)
        for item in items:
            bloom.add(item)
        return bloom

    def _base_hashes(self, key: object) -> Tuple[int, int]:
        data = repr(key).encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1  # make h2 odd -> full cycle
        return h1, h2

    def _positions(self, key: object) -> Iterator[int]:
        h1, h2 = self._base_hashes(key)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: object) -> None:
        for pos in self._positions(key):
            self._bits[pos // 8] |= 1 << (pos % 8)
        self._count += 1

    def __contains__(self, key: object) -> bool:
        return all(self._bits[pos // 8] >> (pos % 8) & 1 for pos in self._positions(key))

    @property
    def approximate_count(self) -> int:
        return self._count

    @property
    def size_in_bytes(self) -> int:
        return len(self._bits)
