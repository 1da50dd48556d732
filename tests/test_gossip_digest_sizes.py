"""Tests for profile digests and the wire-size model."""

from __future__ import annotations

import pytest

from repro.data.models import UserProfile
from repro.gossip import (
    DIGEST_BYTES,
    TAGGING_ACTION_BYTES,
    USER_ID_BYTES,
    DigestCache,
    digest_message_size,
    make_digest,
    partial_result_size,
    profile_length,
    profile_storage_bytes,
    remaining_list_size,
    tagging_actions_size,
)


class TestSizes:
    def test_paper_constants(self):
        assert USER_ID_BYTES == 4
        assert TAGGING_ACTION_BYTES == 36
        assert DIGEST_BYTES == 2500

    def test_digest_message_size(self):
        assert digest_message_size(0) == 0
        assert digest_message_size(10) == 10 * (2500 + 4)

    def test_tagging_actions_size(self):
        assert tagging_actions_size(3) == 108

    def test_remaining_list_size(self):
        assert remaining_list_size(990) == 3960

    def test_partial_result_size(self):
        assert partial_result_size(10, 5) == 10 * 20 + 5 * 4

    def test_profile_length_and_storage(self):
        assert profile_length(249) == 249
        assert profile_storage_bytes(249) == 249 * 36

    @pytest.mark.parametrize(
        "function",
        [
            digest_message_size,
            tagging_actions_size,
            remaining_list_size,
            profile_length,
        ],
    )
    def test_negative_counts_rejected(self, function):
        with pytest.raises(ValueError):
            function(-1)

    def test_partial_result_rejects_negative(self):
        with pytest.raises(ValueError):
            partial_result_size(-1, 0)

    def test_paper_storage_example(self):
        """The paper: 10 stored profiles of ~250 actions each fit in ~12.5 MB
        only when the whole personal network's 1000 profiles are counted; a
        sanity check that our per-profile cost model is in the same regime."""
        one_profile = profile_storage_bytes(349)
        assert one_profile == pytest.approx(12_564, rel=0.01)


class TestDigest:
    def test_digest_covers_profile_items(self):
        profile = UserProfile(1, [(10, 1), (20, 2), (30, 3)])
        digest = make_digest(profile, num_bits=512, num_hashes=4)
        assert all(digest.might_contain_item(item) for item in (10, 20, 30))
        assert digest.user_id == 1
        assert digest.version == profile.version

    def test_shares_item_with(self):
        profile = UserProfile(1, [(10, 1)])
        digest = make_digest(profile, num_bits=512, num_hashes=4)
        assert digest.shares_item_with([99, 10])
        assert not digest.shares_item_with([])

    def test_wire_size_is_paper_constant(self):
        profile = UserProfile(1, [(10, 1)])
        digest = make_digest(profile, num_bits=64, num_hashes=2)
        assert digest.size_in_bytes == DIGEST_BYTES

    def test_same_version_as(self):
        profile = UserProfile(1, [(10, 1)])
        a = make_digest(profile, num_bits=64, num_hashes=2)
        b = make_digest(profile, num_bits=64, num_hashes=2)
        assert a.same_version_as(b)
        profile.add(11, 2)
        c = make_digest(profile, num_bits=64, num_hashes=2)
        assert not a.same_version_as(c)


class TestDigestCache:
    def test_digest_for_is_version_keyed(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        profile = UserProfile(1, [(10, 1), (11, 2)])
        first = cache.digest_for(profile)
        assert cache.digest_for(profile) is first
        profile.add(12, 3)
        second = cache.digest_for(profile)
        assert second is not first
        assert second.version == profile.version
        assert second == make_digest(profile, num_bits=256, num_hashes=3)

    def test_common_items_matches_direct_probe(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1), (11, 2), (99, 5)])
        subject = UserProfile(2, [(11, 7), (42, 1)])
        digest = cache.digest_for(subject)
        assert cache.common_items(receiver, digest) == frozenset(
            digest.common_items_with(receiver.items)
        )
        assert cache.shares_item(receiver, digest) == digest.shares_item_with(
            receiver.items
        )

    def test_common_items_memo_invalidated_by_either_version(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1)])
        subject = UserProfile(2, [(20, 1)])
        digest = cache.digest_for(subject)
        assert cache.common_items(receiver, digest) == frozenset()
        # Receiver-side change: the new common item must appear.
        receiver.add(20, 9)
        assert 20 in cache.common_items(receiver, digest)
        # Subject-side change: a fresh digest version must be re-probed.
        subject.add(10, 9)
        digest2 = cache.digest_for(subject)
        assert 10 in cache.common_items(receiver, digest2)

    def test_batch_prices_the_whole_candidate_set(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1), (20, 2)])
        subjects = [UserProfile(2, [(10, 5)]), UserProfile(3, [(30, 5)])]
        digests = [cache.digest_for(s) for s in subjects]
        for digest in digests:
            assert cache.common_items(receiver, digest) == frozenset(
                digest.common_items_with(receiver.items)
            )

    def test_foreign_geometry_falls_back_to_direct_probe(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1)])
        foreign = make_digest(UserProfile(2, [(10, 5)]), num_bits=64, num_hashes=2)
        assert cache.common_items(receiver, foreign) == frozenset(
            foreign.common_items_with(receiver.items)
        )
        assert cache.stats()["common_pairs"] == 0  # fallback is not memoized

    def test_evict_profiles_reclaims_superseded_state(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        profile = UserProfile(7, [(10, 1)])
        cache.digest_for(profile)
        cache.common_items(profile, cache.digest_for(profile))
        assert cache.stats()["digests"] == 1
        cache.evict_profiles([7])
        assert cache.stats()["digests"] == 0
        assert cache.stats()["rows"] == 0
        # Correctness never depended on eviction: the next read rebuilds.
        assert cache.digest_for(profile).version == profile.version

    def test_evict_profiles_drops_the_pair_memo_row_of_a_changed_receiver(self):
        """Her superseded pairs can never be read again (their receiver
        version cannot match): they must stop counting against the cap."""
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1), (11, 2)])
        bystander = UserProfile(2, [(10, 1)])
        digests = [
            cache.digest_for(UserProfile(100 + n, [(10 + n, 1)])) for n in range(10)
        ]
        for digest in digests:
            cache.common_items(receiver, digest)
        cache.common_items(bystander, digests[0])
        assert cache.stats()["common_pairs"] == 11
        receiver.add(12, 3)
        cache.evict_profiles([receiver.user_id])
        assert cache.stats()["common_pairs"] == 1
        # Subjects own no row: evicting one leaves her askers' pairs alone.
        cache.evict_profiles([digests[0].user_id])
        assert cache.stats()["common_pairs"] == 1

    def test_a_store_under_a_new_receiver_version_replaces_her_row(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        receiver = UserProfile(1, [(10, 1)])
        digests = [
            cache.digest_for(UserProfile(100 + n, [(10 + n, 1)])) for n in range(4)
        ]
        for digest in digests:
            cache.common_items(receiver, digest)
        receiver.add(11, 2)  # no eviction: the next probe finds the stale row
        assert cache.common_items(receiver, digests[1]) == {10 + 1}
        assert cache.stats()["common_pairs"] == 1

    def test_the_pair_cap_counts_pairs_not_rows(self):
        cache = DigestCache(num_bits=256, num_hashes=3)
        cache.MAX_COMMON_PAIRS = 6
        receiver = UserProfile(1, [(10, 1)])
        digests = [
            cache.digest_for(UserProfile(100 + n, [(10 + n, 1)])) for n in range(8)
        ]
        for digest in digests:
            cache.common_items(receiver, digest)
            assert cache.stats()["common_pairs"] <= 6
        # One receiver row throughout; the seventh pair cleared the memo.
        assert cache.stats()["common_pairs"] == 2
        assert cache.common_items(receiver, digests[7]) == frozenset()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DigestCache(num_bits=0)
        with pytest.raises(ValueError):
            DigestCache(num_hashes=0)
