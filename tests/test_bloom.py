"""Tests for the Bloom-filter profile digests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import PAPER_DIGEST_BITS, BloomFilter, hash_bases


class TestSizing:
    def test_paper_digest_size_is_20_kbit(self):
        assert PAPER_DIGEST_BITS == 20_000

    def test_paper_parameters_give_low_fp_rate(self):
        """20 Kbit / 14 hashes at ~250 items: the paper quotes ~0.1% FP."""
        bloom = BloomFilter.from_items(range(250), num_bits=PAPER_DIGEST_BITS, num_hashes=14)
        probes = range(1_000_000, 1_020_000)
        assert sum(1 for item in probes if item in bloom) / len(probes) < 0.005


class TestBloomFilter:
    def test_rejects_invalid_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(num_hashes=0)

    def test_no_false_negatives_simple(self):
        bloom = BloomFilter.from_items(range(20), num_bits=256, num_hashes=3)
        assert all(item in bloom for item in range(20))

    def test_unseen_items_mostly_absent(self):
        bloom = BloomFilter.from_items(range(50), num_bits=4096, num_hashes=6)
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
        assert BloomFilter(num_bits=128, num_hashes=2).approximate_count == 0
        bloom = BloomFilter.from_items([*range(7), 3], num_bits=128, num_hashes=2)
        assert bloom.approximate_count == 8


class TestBloomProperties:
    @given(st.sets(st.integers(), max_size=200))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        """Every inserted key must be reported as present, whatever the keys."""
        bloom = BloomFilter.from_items(items, num_bits=2048, num_hashes=5)
        assert all(item in bloom for item in items)

    @given(st.sets(st.tuples(st.integers(), st.integers()), max_size=100))
    @settings(max_examples=30)
    def test_works_with_tuple_keys(self, actions):
        bloom = BloomFilter.from_items(actions, num_bits=4096, num_hashes=5)
        assert all(action in bloom for action in actions)

    @given(
        st.integers(1, 300),
        st.integers(1, 6),
        st.lists(st.integers(0, 1000), max_size=30),
    )
    @settings(max_examples=60)
    def test_row_bytes_is_the_little_endian_bit_image(self, num_bits, num_hashes, keys):
        """The row is the filter's one form of its bits: ``raw_bits`` reads
        it, and it rebuilds an equal filter through both state
        constructors."""
        bloom = BloomFilter.from_items(keys, num_bits=num_bits, num_hashes=num_hashes)
        width = (num_bits + 7) // 8
        row = bloom.row_bytes()
        assert type(row) is bytes and len(row) == width
        assert row == bloom.raw_bits.to_bytes(width, "little")
        assert bloom.row_bytes() is row
        count = bloom.approximate_count
        rebuilt = BloomFilter.from_state(
            num_bits, num_hashes, int.from_bytes(row, "little"), count
        )
        adopted = BloomFilter.from_row(num_bits, num_hashes, row, count)
        assert rebuilt.raw_bits == bloom.raw_bits == adopted.raw_bits
        assert rebuilt.row_bytes() == row and adopted.row_bytes() is row

    @given(
        st.integers(1, 300),
        st.integers(1, 6),
        st.lists(
            st.one_of(
                st.integers(0, 1000),
                st.integers(max_value=-1),
                st.integers(min_value=1 << 64),
                st.tuples(st.integers(), st.integers()),
            ),
            max_size=30,
        ),
        st.lists(st.one_of(st.integers(), st.tuples(st.integers(), st.integers())), max_size=30),
    )
    @settings(max_examples=100)
    def test_the_row_is_the_double_hashing_reference(self, num_bits, num_hashes, keys, probes):
        """An independent reference: the row a test builds bit by bit from
        :func:`hash_bases` with ``(h1 + i*h2) mod num_bits`` is the filter's
        row, and membership is exactly "every position set in it"."""
        width = (num_bits + 7) // 8
        reference = bytearray(width)

        def positions(key):
            h1, h2 = hash_bases(key)
            return [(h1 + i * h2) % num_bits for i in range(num_hashes)]

        for key in keys:
            for position in positions(key):
                reference[position // 8] |= 1 << (position % 8)
        bloom = BloomFilter.from_items(keys, num_bits=num_bits, num_hashes=num_hashes)
        assert bloom.row_bytes() == bytes(reference)
        for key in keys + probes:
            expected = all(reference[p // 8] >> (p % 8) & 1 for p in positions(key))
            assert (key in bloom) is expected
