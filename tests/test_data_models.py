"""Unit tests for the tagging data model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.data.interning import intern_action
from repro.data.models import ChangeDay, ProfileChange, UserProfile


class TestUserProfile:
    def test_add_returns_true_for_new_action(self):
        profile = UserProfile(1)
        assert profile.add_all([(10, 20)]) == 1

    def test_add_returns_false_for_duplicate(self):
        profile = UserProfile(1, [(10, 20)])
        assert profile.add_all([(10, 20)]) == 0

    def test_version_increments_only_on_new_actions(self):
        profile = UserProfile(1)
        assert profile.version == 0
        profile.add_all([(1, 2)])
        assert profile.version == 1
        profile.add_all([(1, 2)])
        assert profile.version == 1
        profile.add_all([(1, 3)])
        assert profile.version == 2

    def test_items_and_tags_for(self):
        profile = UserProfile(1, [(1, 10), (1, 11), (2, 10)])
        assert profile.items == frozenset({1, 2})
        assert profile.tags_for(1) == frozenset({10, 11})
        assert profile.tags_for(99) == frozenset()

    def test_actions_for_items_restricts_to_requested_items(self):
        profile = UserProfile(1, [(1, 10), (2, 11), (3, 12)])
        assert profile.actions_for_items({1, 3}) == {(1, 10), (3, 12)}

    def test_len_and_contains(self):
        profile = UserProfile(1, [(1, 10), (2, 11)])
        assert len(profile) == 2
        assert (1, 10) in profile
        assert (9, 9) not in profile

    def test_copy_is_independent(self):
        profile = UserProfile(1, [(1, 10)])
        clone = profile.copy()
        assert clone.actions == profile.actions
        assert clone.version == profile.version
        profile.add_all([(2, 20)])
        assert (2, 20) not in clone
        assert clone.version != profile.version

    def test_add_all_counts_new_actions_only(self):
        profile = UserProfile(1, [(1, 10)])
        added = profile.add_all([(1, 10), (2, 20), (3, 30)])
        assert added == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            max_size=60,
        )
    )
    def test_profile_length_equals_distinct_actions(self, actions):
        profile = UserProfile(0, actions)
        assert len(profile) == len(set(actions))
        assert profile.version == len(set(actions))

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            max_size=40,
        )
    )
    def test_items_match_actions(self, actions):
        profile = UserProfile(0, actions)
        assert profile.items == {item for item, _ in set(actions)}


class _NaiveProfile:
    """Dict-of-sets reference for :class:`UserProfile`; every copy is deep."""

    def __init__(self, user_id, actions=(), version=None):
        self.user_id = user_id
        self.item_tags = {}
        self.version = 0
        self.add_all(actions)
        if version is not None:
            self.version = version

    def add_all(self, actions):
        added = 0
        for item, tag in actions:
            tags = self.item_tags.setdefault(item, set())
            if tag not in tags:
                tags.add(tag)
                added += 1
        self.version += added
        return added

    def actions(self):
        return {(item, tag) for item, tags in self.item_tags.items() for tag in tags}

    def copy(self):
        return _NaiveProfile(self.user_id, self.actions(), self.version)

    def restore(self, snapshot):
        self.item_tags = snapshot.copy().item_tags
        self.version = snapshot.version


def _assert_profile_matches(profile: UserProfile, model: _NaiveProfile, rng) -> None:
    """Every read API of ``profile`` against the naive model."""
    actions = model.actions()
    assert profile.version == model.version
    assert len(profile) == len(actions)
    assert profile.actions == actions
    assert profile.action_ids == {intern_action(item, tag) for item, tag in actions}
    listed = list(profile)
    assert len(listed) == len(actions) and set(listed) == actions
    assert profile.items == set(model.item_tags)
    items = sorted(model.item_tags) + [77]
    tags = sorted({tag for _item, tag in actions}) + [77]
    for item in items:
        assert profile.tags_for(item) == model.item_tags.get(item, set())
    for tag in tags:
        found = profile.items_for_tag(tag)
        assert len(found) == len(set(found))
        assert set(found) == {item for item, t in actions if t == tag}
    for item in items:
        for tag in tags:
            assert ((item, tag) in profile) == ((item, tag) in actions)
    request = frozenset(rng.sample(items, min(3, len(items))))
    assert set(profile.action_ids_for_items(request)) == {
        intern_action(item, tag) for item, tag in actions if item in request
    }


class TestProfileAgainstNaiveModel:
    """The one-copy representation behaves as a plain set of actions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings_match_the_reference(self, seed):
        rng = random.Random(seed)

        def batch(size):  # small universe: repeats and already-known actions
            return [(rng.randrange(6), rng.randrange(5)) for _ in range(rng.randrange(size))]

        first = batch(14)
        if rng.choice(("init", "state")) == "state":
            live = [(UserProfile.from_state(3, first, 40), _NaiveProfile(3, first, 40))]
        else:
            live = [(UserProfile(3, first), _NaiveProfile(3, first))]
        for _step in range(60):
            profile, model = rng.choice(live)
            op = rng.choice(("add", "add_all", "copy", "restore"))
            if op == "add":
                action = (rng.randrange(6), rng.randrange(5))
                assert profile.add_all([action]) == model.add_all([action])
            elif op == "add_all":
                actions = batch(6)
                assert profile.add_all(iter(actions)) == model.add_all(actions)
            elif op == "copy" and len(live) < 8:
                live.append((profile.copy(), model.copy()))
            elif op == "restore":
                snapshot, snapshot_model = rng.choice(live)
                profile.restore(snapshot)
                model.restore(snapshot_model)
            # Copy-on-write isolation, both directions: a write through any
            # holder must leave every other holder as its own model says.
            for other, other_model in live:
                _assert_profile_matches(other, other_model, rng)

    def test_restore_rejects_another_users_snapshot(self):
        with pytest.raises(ValueError):
            UserProfile(1, [(1, 1)]).restore(UserProfile(2, [(1, 1)]))


class TestDataset:
    def test_from_actions_builds_profiles(self, tiny_dataset):
        assert len(tiny_dataset) == 5
        assert tiny_dataset.profile(0).items == frozenset({1, 2, 3, 4})

    def test_user_ids_sorted(self, tiny_dataset):
        assert tiny_dataset.user_ids == [0, 1, 2, 3, 4]

    def test_items_and_tags_union(self, tiny_dataset):
        assert 1 in tiny_dataset.items()
        assert 200 in tiny_dataset.tags()

    def test_stats(self, tiny_dataset):
        stats = tiny_dataset.stats()
        assert stats.num_users == 5
        assert stats.num_actions == sum(len(p) for p in tiny_dataset.profiles())
        assert stats.max_profile_length >= stats.mean_profile_length

    def test_copy_is_deep(self, tiny_dataset):
        clone = tiny_dataset.copy()
        clone.profile(0).add_all([(999, 999)])
        assert (999, 999) not in tiny_dataset.profile(0)


class TestChangeStructures:
    def test_profile_change_length(self):
        change = ProfileChange(user_id=1, new_actions=((1, 2), (3, 4)))
        assert len(change) == 2

    def test_change_day_changed_users(self):
        day = ChangeDay(
            day=0,
            changes=(
                ProfileChange(user_id=1, new_actions=((1, 2),)),
                ProfileChange(user_id=4, new_actions=((5, 6),)),
            ),
        )
        assert day.changed_users == frozenset({1, 4})
