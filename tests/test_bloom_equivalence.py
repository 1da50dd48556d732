"""Equivalence of the production Bloom filter with the legacy filter.

The performance overhaul replaced the seed's ``hashlib``-per-probe filter
(:class:`repro.bloom._legacy.LegacyBloomFilter`) with
:class:`repro.bloom.BloomFilter`.  The two use different hash functions, so
their bit patterns differ -- but every *guarantee* and every *deterministic
observable* must match:

* no false negatives, for any key type, under any insertion order;
* identical sizing model (``size_in_bytes`` and insert counting for the
  same geometry and load);
* comparable measured false-positive behaviour at the paper's geometry.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter, hash_bases
from repro.bloom._legacy import LegacyBloomFilter

GEOMETRY = dict(num_bits=4096, num_hashes=5)


class TestBehaviouralEquivalence:
    @given(st.sets(st.integers(), max_size=200))
    @settings(max_examples=50)
    def test_both_filters_have_no_false_negatives(self, items):
        fast = BloomFilter.from_items(items, **GEOMETRY)
        legacy = LegacyBloomFilter.from_items(items, **GEOMETRY)
        for item in items:
            assert item in fast
            assert item in legacy

    @given(st.sets(st.tuples(st.integers(), st.integers()), max_size=100))
    @settings(max_examples=30)
    def test_tuple_keys_match_legacy_guarantee(self, actions):
        """Non-integer keys (tagging actions) keep the no-false-negative law."""
        fast = BloomFilter.from_items(actions, **GEOMETRY)
        legacy = LegacyBloomFilter.from_items(actions, **GEOMETRY)
        assert all(action in fast for action in actions)
        assert all(action in legacy for action in actions)

    @given(st.sets(st.integers(), max_size=150))
    @settings(max_examples=50)
    def test_identical_accounting(self, items):
        """Count and wire size depend only on geometry + load."""
        fast = BloomFilter.from_items(items, **GEOMETRY)
        legacy = LegacyBloomFilter.from_items(items, **GEOMETRY)
        assert fast.approximate_count == legacy.approximate_count
        assert fast.size_in_bytes == legacy.size_in_bytes

    def test_paper_geometry_reports_2500_bytes_each(self):
        assert BloomFilter(20_000, 14).size_in_bytes == 2_500
        assert LegacyBloomFilter(20_000, 14).size_in_bytes == 2_500


class TestFalsePositiveBehaviour:
    def test_measured_fp_rates_comparable_under_fixed_seed(self):
        """At the paper's geometry both filters stay near the predicted rate.

        The bit patterns differ (different hash families), so equivalence is
        statistical: both measured rates must be within a small factor of the
        analytical estimate, and neither may blow past the seed's quality.
        """
        rng = random.Random(20100322)
        members = rng.sample(range(1_000_000), 250)
        probes = [x for x in rng.sample(range(1_000_000, 2_000_000), 20_000)]

        fast = BloomFilter.from_items(members, num_bits=20_000, num_hashes=14)
        legacy = LegacyBloomFilter.from_items(members, num_bits=20_000, num_hashes=14)

        fast_fp = sum(1 for x in probes if x in fast) / len(probes)
        legacy_fp = sum(1 for x in probes if x in legacy) / len(probes)
        predicted = (1.0 - math.exp(-14 * len(members) / 20_000)) ** 14

        assert fast_fp < max(10 * predicted, 0.005)
        assert legacy_fp < max(10 * predicted, 0.005)


class TestHashBases:
    def test_bases_are_deterministic_and_cached(self):
        assert hash_bases(12345) == hash_bases(12345)
        assert hash_bases((1, 2)) == hash_bases((1, 2))

    def test_h2_is_odd_for_all_key_types(self):
        for key in (0, 1, -17, 2**63, (3, 4), "item"):
            _, h2 = hash_bases(key)
            assert h2 % 2 == 1

    def test_distinct_keys_get_distinct_bases(self):
        bases = {hash_bases(key) for key in range(1000)}
        assert len(bases) == 1000

    def test_huge_integers_fall_back_safely(self):
        """Ints beyond the 64-bit range use the blake2b path, no truncation."""
        a, b = 2**100, 2**100 + (1 << 70)
        assert hash_bases(a) != hash_bases(b)

    def test_no_aliasing_across_the_64_bit_boundary(self):
        """``k`` and ``k + 2**64`` (and negatives) must not share bases.

        Regression test: a fast path that masks with ``& (2**64 - 1)``
        would give ``-1`` and ``2**64 - 1`` identical probe positions -- a
        deterministic false positive the legacy filter never produced.
        """
        assert hash_bases(-1) != hash_bases(2**64 - 1)
        assert hash_bases(5) != hash_bases(5 + 2**64)
        bloom = BloomFilter.from_items([-1], **GEOMETRY)
        assert -1 in bloom

    def test_equal_but_distinct_type_keys_do_not_conflate(self):
        """``1``/``True``/``1.0`` are equal dict keys but must hash apart.

        Regression test: the cache used to key by raw value, so whichever
        of the three was seen first decided everyone's bases -- making the
        bases depend on cache warm-up order and breaking the no-false-
        negative guarantee across ``clear_hash_cache()``.
        """
        from repro.bloom import clear_hash_cache

        clear_hash_cache()
        hash_bases(1)  # warm the cache with the int first
        warm = (hash_bases(True), hash_bases(1.0), hash_bases(1))
        clear_hash_cache()
        cold = (hash_bases(True), hash_bases(1.0), hash_bases(1))
        assert warm == cold
        assert warm[0] != warm[2] and warm[1] != warm[2]

    def test_bool_keys_survive_cache_clear(self):
        """An added key stays present whatever the cache state."""
        from repro.bloom import clear_hash_cache

        clear_hash_cache()
        hash_bases(1)  # poison attempt: int twin cached first
        bloom = BloomFilter.from_items([True], **GEOMETRY)
        clear_hash_cache()
        assert True in bloom

    def test_unhashable_keys_still_work_uncached(self):
        """The legacy filter accepted any repr-able key; so must we."""
        bloom = BloomFilter.from_items([[1, 2, 3]], **GEOMETRY)
        assert [1, 2, 3] in bloom
