"""Interned similarity scoring must equal the naive tuple-set definition.

The performance overhaul made every similarity metric score on
``UserProfile.action_ids`` -- per-version cached frozensets of interned
action ids (:mod:`repro.data.interning`) -- instead of rebuilding tuple
sets per comparison.  These property tests pin the core invariant: for any
two profiles the interned score equals the score computed from scratch on
raw ``(item, tag)`` tuples, and the maintained indexes stay consistent
through mutation and copying.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.data import GLOBAL_INTERNER, action_of, intern_action
from repro.data.models import UserProfile
from repro.similarity import (
    common_actions,
    cosine_score,
    item_overlap_score,
    jaccard_score,
    overlap_score,
    overlap_score_from_actions,
)

actions = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60)


def naive_overlap(a: UserProfile, b: UserProfile) -> float:
    """The pre-interning definition, computed from scratch on tuples."""
    return float(len(set(iter(a)) & set(iter(b))))


class TestScoreEquivalence:
    @given(actions, actions)
    @settings(max_examples=100)
    def test_overlap_matches_naive(self, acts_a, acts_b):
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        assert overlap_score(a, b) == naive_overlap(a, b)

    @given(actions, actions)
    @settings(max_examples=100)
    def test_jaccard_matches_naive(self, acts_a, acts_b):
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        inter = naive_overlap(a, b)
        union = len(a) + len(b) - inter
        expected = inter / union if union else 0.0
        assert jaccard_score(a, b) == expected

    @given(actions, actions)
    @settings(max_examples=100)
    def test_cosine_matches_naive(self, acts_a, acts_b):
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        if len(a) == 0 or len(b) == 0:
            expected = 0.0
        else:
            expected = naive_overlap(a, b) / math.sqrt(len(a) * len(b))
        assert cosine_score(a, b) == expected

    @given(actions, actions)
    @settings(max_examples=100)
    def test_item_overlap_matches_naive(self, acts_a, acts_b):
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        expected = float(len({i for i, _ in acts_a} & {i for i, _ in acts_b}))
        assert item_overlap_score(a, b) == expected

    @given(actions, actions)
    @settings(max_examples=100)
    def test_common_actions_matches_tuple_intersection(self, acts_a, acts_b):
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        assert common_actions(a, b) == set(acts_a) & set(acts_b)

    @given(actions, actions)
    @settings(max_examples=50)
    def test_lazy_exchange_partial_scoring_matches(self, acts_a, acts_b):
        """Step-2 scoring (actions on common items) equals full-profile score."""
        a, b = UserProfile(1, acts_a), UserProfile(2, acts_b)
        partial = b.actions_for_items(a.items)
        assert overlap_score_from_actions(a.actions, partial) == overlap_score(a, b)


class TestInternedIndexConsistency:
    @given(actions)
    @settings(max_examples=100)
    def test_action_ids_roundtrip_to_actions(self, acts):
        profile = UserProfile(1, acts)
        assert {action_of(aid) for aid in profile.action_ids} == set(acts)
        assert len(profile.action_ids) == len(profile.actions)

    @given(actions)
    @settings(max_examples=50)
    def test_tag_index_matches_item_index(self, acts):
        profile = UserProfile(1, acts)
        for item, tag in acts:
            assert item in profile.items_for_tag(tag)
            assert tag in profile.tags_for(item)

    def test_interner_is_idempotent_and_bijective(self):
        first = intern_action(777_001, 42)
        assert intern_action(777_001, 42) == first
        assert GLOBAL_INTERNER.action_of(first) == (777_001, 42)
        assert GLOBAL_INTERNER.id_of(777_001, 42) == first

    def test_cached_views_invalidate_on_add(self):
        profile = UserProfile(1, [(1, 1)])
        before_actions = profile.actions
        before_ids = profile.action_ids
        assert profile.add(2, 2)
        assert (2, 2) in profile.actions
        assert len(profile.action_ids) == 2
        # The previously handed-out views are unchanged snapshots.
        assert before_actions == frozenset({(1, 1)})
        assert len(before_ids) == 1

    def test_copy_is_independent(self):
        original = UserProfile(1, [(1, 1), (2, 2)])
        clone = original.copy()
        assert clone.action_ids == original.action_ids
        assert clone.version == original.version
        assert clone.add(3, 3)
        assert (3, 3) not in original.actions
        assert len(original.action_ids) == 2
        # items_for_tag hands out the stored tuple: compare as collections.
        assert len(original.items_for_tag(3)) == 0
        assert set(clone.items_for_tag(3)) == {3}

    def test_duplicate_add_changes_nothing(self):
        profile = UserProfile(1, [(5, 6)])
        version = profile.version
        assert not profile.add(5, 6)
        assert profile.version == version
        assert len(profile.action_ids) == 1
