"""Bloom-filter profile digests used by the gossip protocol.

:class:`BloomFilter` is the bit-packed production filter (see
``docs/ARCHITECTURE.md`` for the design); ``repro.bloom._legacy`` keeps the
original ``hashlib``-based implementation as an equivalence/benchmark
baseline.
"""

from .bloom import PAPER_DIGEST_BITS, BloomFilter, clear_hash_cache, hash_bases

__all__ = ["PAPER_DIGEST_BITS", "BloomFilter", "clear_hash_cache", "hash_bases"]
