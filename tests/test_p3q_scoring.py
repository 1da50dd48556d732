"""Tests for the query relevance scoring functions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.models import UserProfile
from repro.data.queries import Query
from repro.p3q.scoring import partial_scores


@pytest.fixture()
def query() -> Query:
    return Query(query_id=0, querier=0, tags=(1, 2, 3))


class TestPerUserScore:
    def test_counts_matching_query_tags(self, query):
        profile = UserProfile(1, [(10, 1), (10, 2), (10, 9), (20, 3)])
        assert partial_scores([profile], query) == {10: 2.0, 20: 1.0}

    def test_user_score_map_keeps_positive_only(self, query):
        profile = UserProfile(1, [(10, 1), (20, 9), (30, 2), (30, 3)])
        assert partial_scores([profile], query) == {10: 1.0, 30: 2.0}

    def test_score_bounded_by_query_length(self, query):
        profile = UserProfile(1, [(10, 1), (10, 2), (10, 3), (10, 4)])
        assert partial_scores([profile], query)[10] == len(query.tags)


class TestAggregation:
    def test_partial_scores_sum_over_profiles(self, query):
        a = UserProfile(1, [(10, 1), (20, 2)])
        b = UserProfile(2, [(10, 2), (10, 3)])
        scores = partial_scores([a, b], query)
        assert scores == {10: 3.0, 20: 1.0}

    def test_partial_scores_empty_for_unrelated_profiles(self, query):
        profile = UserProfile(1, [(10, 99), (20, 98)])
        assert partial_scores([profile], query) == {}

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=20),
            min_size=1,
            max_size=5,
        ),
        st.sets(st.integers(0, 10), min_size=1, max_size=4),
    )
    @settings(max_examples=50)
    def test_partial_scores_decompose_additively(self, profile_actions, tags):
        """partial_scores over a union of profiles equals the sum of
        partial_scores over any partition of them -- the property that makes
        P3Q's distributed partial results correct."""
        query = Query(query_id=0, querier=0, tags=tuple(sorted(tags)))
        profiles = [UserProfile(i, actions) for i, actions in enumerate(profile_actions)]
        whole = partial_scores(profiles, query)
        first, second = profiles[: len(profiles) // 2], profiles[len(profiles) // 2:]
        merged = {}
        for part in (partial_scores(first, query), partial_scores(second, query)):
            for item, score in part.items():
                merged[item] = merged.get(item, 0.0) + score
        assert merged == whole
