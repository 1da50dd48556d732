"""Tests for similarity metrics and the offline ideal-network index."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.models import Dataset, UserProfile
from repro.metrics.convergence import average_success_ratio, success_ratio
from repro.similarity import (
    IdealNetworkIndex,
    common_actions,
    cosine_score,
    get_metric,
    item_overlap_score,
    jaccard_score,
    overlap_score,
    overlap_score_from_actions,
)

action_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40
)


def _brute_force_overlap(dataset, size: int) -> IdealNetworkIndex:
    """The reference: all-pairs overlap through the generic-metric path
    (any metric that is not ``overlap_score`` itself is scored pair by pair)."""
    return IdealNetworkIndex(dataset, size, metric=lambda a, b: overlap_score(a, b))


def _profile(user_id: int, actions) -> UserProfile:
    return UserProfile(user_id, actions)


class TestMetrics:
    def test_overlap_counts_common_actions(self, tiny_dataset):
        a = tiny_dataset.profile(0)
        b = tiny_dataset.profile(1)
        # Common actions: (1,100), (2,100), (3,101)
        assert overlap_score(a, b) == 3

    def test_overlap_zero_for_disjoint_profiles(self, tiny_dataset):
        assert overlap_score(tiny_dataset.profile(0), tiny_dataset.profile(3)) == 0

    def test_overlap_from_actions_matches_full_overlap(self, tiny_dataset):
        a = tiny_dataset.profile(0)
        b = tiny_dataset.profile(1)
        partial = b.actions_for_items(a.items)
        assert overlap_score_from_actions(a.actions, partial) == overlap_score(a, b)

    def test_jaccard_bounds(self, tiny_dataset):
        a = tiny_dataset.profile(0)
        b = tiny_dataset.profile(1)
        assert 0.0 <= jaccard_score(a, b) <= 1.0

    def test_cosine_bounds(self, tiny_dataset):
        a = tiny_dataset.profile(0)
        b = tiny_dataset.profile(1)
        assert 0.0 <= cosine_score(a, b) <= 1.0

    def test_item_overlap_counts_items_not_actions(self, tiny_dataset):
        a = tiny_dataset.profile(0)
        c = tiny_dataset.profile(2)
        # Common items 1, 2, 4 even though tags differ on item 2.
        assert item_overlap_score(a, c) == 3

    def test_get_metric_known_and_unknown(self):
        assert get_metric("overlap") is overlap_score
        with pytest.raises(KeyError):
            get_metric("nope")

    @given(action_lists, action_lists)
    @settings(max_examples=60)
    def test_all_metrics_are_symmetric(self, actions_a, actions_b):
        a = _profile(0, actions_a)
        b = _profile(1, actions_b)
        for metric in (overlap_score, jaccard_score, cosine_score, item_overlap_score):
            assert metric(a, b) == pytest.approx(metric(b, a))

    @given(action_lists)
    @settings(max_examples=40)
    def test_self_similarity_is_maximal_overlap(self, actions):
        profile = _profile(0, actions)
        assert overlap_score(profile, profile) == len(profile)
        if len(profile):
            assert jaccard_score(profile, profile) == pytest.approx(1.0)
            assert cosine_score(profile, profile) == pytest.approx(1.0)

    @given(action_lists, action_lists)
    @settings(max_examples=60)
    def test_overlap_bounded_by_smaller_profile(self, actions_a, actions_b):
        a = _profile(0, actions_a)
        b = _profile(1, actions_b)
        assert overlap_score(a, b) <= min(len(a), len(b))

    @given(action_lists, action_lists)
    @settings(max_examples=40)
    def test_common_actions_is_set_intersection(self, actions_a, actions_b):
        a = _profile(0, actions_a)
        b = _profile(1, actions_b)
        assert common_actions(a, b) == set(a.actions) & set(b.actions)


class TestIdealNetworkIndex:
    def test_rejects_non_positive_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            IdealNetworkIndex(tiny_dataset, size=0)

    def test_networks_only_contain_positive_scores(self, tiny_dataset):
        index = IdealNetworkIndex(tiny_dataset, size=4)
        for uid in tiny_dataset.user_ids:
            for neighbour in index.network_of(uid):
                assert neighbour.score > 0

    def test_networks_sorted_by_descending_score(self, synthetic_ideal, synthetic_dataset):
        for uid in synthetic_dataset.user_ids:
            scores = [n.score for n in synthetic_ideal.network_of(uid)]
            assert scores == sorted(scores, reverse=True)

    def test_network_respects_size_limit(self, synthetic_dataset):
        index = IdealNetworkIndex(synthetic_dataset, size=5)
        assert all(len(index.network_of(uid)) <= 5 for uid in synthetic_dataset.user_ids)

    def test_inverted_index_matches_brute_force(self, tiny_dataset):
        fast = IdealNetworkIndex(tiny_dataset, size=4)
        slow = IdealNetworkIndex(tiny_dataset, size=4, metric=jaccard_score)
        # Different metrics rank differently, but the overlap-metric index
        # must agree with a brute-force overlap computation.
        brute = _brute_force_overlap(tiny_dataset, size=4)
        for uid in tiny_dataset.user_ids:
            assert fast.neighbour_ids(uid) == brute.neighbour_ids(uid)
        assert slow.network_of(0)  # jaccard path exercised

    @given(
        # A tiny action universe: many score ties, users sharing nothing
        # with anyone, empty profiles.
        st.lists(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=8),
            min_size=1,
            max_size=9,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_posting_list_pass_matches_brute_force_on_any_corpus(self, corpus, size):
        dataset = Dataset.from_actions(dict(enumerate(corpus)))
        fast = IdealNetworkIndex(dataset, size=size)
        brute = _brute_force_overlap(dataset, size=size)
        for uid in dataset.user_ids:
            assert fast.network_of(uid) == brute.network_of(uid)

    def test_packed_keys_match_brute_force_on_ties_and_scattered_ids(self):
        """Many tied overlap counts, and ids that reach each user's counter
        out of order (user 0's first posting holds the largest ids): ties
        must still break on ascending id, up to the largest id allowed."""
        big = 2**31 - 1
        corpus = {
            0: [(1, 0), (2, 0), (3, 0), (4, 0)],
            big: [(1, 0), (2, 0)],
            900: [(1, 0), (3, 0)],
            7: [(1, 0), (4, 0)],
            55: [(2, 0), (3, 0)],
            3: [(4, 0)],
            12: [(3, 0)],
            400: [(2, 0)],
        }
        dataset = Dataset.from_actions(corpus)
        for size in (1, 3, 5, 10):
            fast = IdealNetworkIndex(dataset, size=size)
            brute = _brute_force_overlap(dataset, size=size)
            for uid in dataset.user_ids:
                assert fast.network_of(uid) == brute.network_of(uid)
                assert fast.neighbour_scores(uid) == brute.neighbour_scores(uid)
        assert IdealNetworkIndex(dataset, size=4).neighbour_ids(0) == [7, 55, 900, big]

    @pytest.mark.parametrize("bad_id", [-1, 2**31, 2**40])
    def test_rejects_a_user_id_outside_the_column_range(self, bad_id):
        dataset = Dataset.from_actions({0: [(1, 0)], bad_id: [(1, 0)]})
        with pytest.raises(ValueError, match=str(bad_id)):
            IdealNetworkIndex(dataset, size=2)

    def test_score_lookup(self, tiny_dataset):
        index = IdealNetworkIndex(tiny_dataset, size=4)
        scores = dict(zip(index.neighbour_ids(0), index.neighbour_scores(0)))
        assert scores[1] == 3
        assert 3 not in scores

    def test_success_ratio_bounds_and_perfect_discovery(self, synthetic_ideal, synthetic_dataset):
        uid = synthetic_dataset.user_ids[0]
        ideal_ids = synthetic_ideal.neighbour_ids(uid)
        assert success_ratio(ideal_ids, ideal_ids) == 1.0
        assert success_ratio(ideal_ids, []) == (1.0 if not ideal_ids else 0.0)

    def test_average_success_ratio_with_full_knowledge(self, synthetic_ideal, synthetic_dataset):
        discovered = {
            uid: synthetic_ideal.neighbour_ids(uid) for uid in synthetic_dataset.user_ids
        }
        assert average_success_ratio(synthetic_ideal, discovered) == pytest.approx(1.0)
