"""Tests for the Bloom-filter profile digests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import PAPER_DIGEST_BITS, BloomFilter


class TestSizing:
    def test_paper_digest_size_is_20_kbit(self):
        assert PAPER_DIGEST_BITS == 20_000

    def test_paper_parameters_give_low_fp_rate(self):
        """20 Kbit / 14 hashes at ~250 items: the paper quotes ~0.1% FP."""
        bloom = BloomFilter(num_bits=PAPER_DIGEST_BITS, num_hashes=14)
        for item in range(250):
            bloom.add(item)
        probes = range(1_000_000, 1_020_000)
        assert sum(1 for item in probes if item in bloom) / len(probes) < 0.005


class TestBloomFilter:
    def test_rejects_invalid_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(num_hashes=0)

    def test_no_false_negatives_simple(self):
        bloom = BloomFilter(num_bits=256, num_hashes=3)
        for item in range(20):
            bloom.add(item)
        assert all(item in bloom for item in range(20))

    def test_unseen_items_mostly_absent(self):
        bloom = BloomFilter(num_bits=4096, num_hashes=6)
        bloom.update(range(50))
        false_positives = sum(1 for item in range(1000, 2000) if item in bloom)
        assert false_positives < 50

    def test_size_in_bytes(self):
        assert BloomFilter(num_bits=20_000, num_hashes=14).size_in_bytes == 2_500

    @pytest.mark.parametrize("bits", [-5, 1 << 40], ids=["negative", "wider-than-the-row"])
    def test_from_state_rejects_a_bit_array_outside_the_geometry(self, bits):
        """A negative array reports every key present and has no row; one
        wider than the geometry has no row either."""
        with pytest.raises(ValueError, match="16-bit"):
            BloomFilter.from_state(16, 2, bits, 1)
        # Up to the row's last byte is the widest a received row can be.
        assert BloomFilter.from_state(13, 2, 0xFFFF, 1).row_bytes() == b"\xff\xff"

    def test_approximate_count_tracks_adds(self):
        bloom = BloomFilter(num_bits=128, num_hashes=2)
        bloom.update(range(7))
        assert bloom.approximate_count == 7


class TestBloomProperties:
    @given(st.sets(st.integers(), max_size=200))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        """Every inserted key must be reported as present, whatever the keys."""
        bloom = BloomFilter(num_bits=2048, num_hashes=5)
        bloom.update(items)
        assert all(item in bloom for item in items)

    @given(st.sets(st.tuples(st.integers(), st.integers()), max_size=100))
    @settings(max_examples=30)
    def test_works_with_tuple_keys(self, actions):
        bloom = BloomFilter(num_bits=4096, num_hashes=5)
        bloom.update(actions)
        assert all(action in bloom for action in actions)

    @given(
        st.integers(1, 300),
        st.integers(1, 6),
        st.lists(st.integers(0, 1000), max_size=30),
        st.integers(0, 1000),
    )
    @settings(max_examples=60)
    def test_row_bytes_is_the_little_endian_bit_image(self, num_bits, num_hashes, keys, late):
        """``row_bytes`` is memoised, so it must track inserts; the row
        rebuilds an equal filter through both state constructors."""
        bloom = BloomFilter.from_items(keys, num_bits=num_bits, num_hashes=num_hashes)
        width = (num_bits + 7) // 8
        row = bloom.row_bytes()
        assert row == bloom.raw_bits.to_bytes(width, "little")
        assert bloom.row_bytes() is row
        bloom.add(late)
        assert bloom.row_bytes() == bloom.raw_bits.to_bytes(width, "little")
        row = bloom.row_bytes()
        count = bloom.approximate_count
        rebuilt = BloomFilter.from_state(
            num_bits, num_hashes, int.from_bytes(row, "little"), count
        )
        adopted = BloomFilter.from_row(num_bits, num_hashes, row, count)
        assert rebuilt.raw_bits == bloom.raw_bits == adopted.raw_bits
        assert rebuilt.row_bytes() == row and adopted.row_bytes() is row
