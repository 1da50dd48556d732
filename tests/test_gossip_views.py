"""Tests for the personal network and random view data structures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.models import UserProfile
from repro.gossip.digest import make_digest
from repro.gossip.views import PersonalNetwork, RandomView


def _digest(user_id: int, items=(1, 2), version=None):
    profile = UserProfile(user_id, [(item, 0) for item in items])
    digest = make_digest(profile, num_bits=256, num_hashes=3)
    if version is not None:
        return type(digest)(user_id=user_id, version=version, bloom=digest.bloom)
    return digest


class TestPersonalNetwork:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            PersonalNetwork(0, size=0, storage=1)
        with pytest.raises(ValueError):
            PersonalNetwork(0, size=5, storage=-1)

    def test_storage_clamped_to_size(self):
        network = PersonalNetwork(0, size=3, storage=10)
        assert network.storage == 3

    def test_consider_ignores_self_and_non_positive_scores(self):
        network = PersonalNetwork(0, size=3, storage=1)
        assert not network.consider(0, 5.0, _digest(0))
        assert not network.consider(1, 0.0, _digest(1))
        assert len(network) == 0

    def test_consider_keeps_best_s_entries(self):
        network = PersonalNetwork(0, size=2, storage=1)
        network.consider(1, 1.0, _digest(1))
        network.consider(2, 5.0, _digest(2))
        network.consider(3, 3.0, _digest(3))
        assert network.member_ids() == [2, 3]

    def test_zero_score_reconsideration_removes_member(self):
        network = PersonalNetwork(0, size=3, storage=1)
        network.consider(1, 2.0, _digest(1))
        network.consider(1, 0.0, _digest(1))
        assert 1 not in network

    def test_store_profile_only_for_top_c(self):
        network = PersonalNetwork(0, size=3, storage=1)
        network.consider(1, 5.0, _digest(1))
        network.consider(2, 1.0, _digest(2))
        assert network.store_profile(1, UserProfile(1, [(1, 0)]))
        assert not network.store_profile(2, UserProfile(2, [(2, 0)]))
        assert network.stored_ids() == [1]

    def test_storage_budget_enforced_on_better_arrivals(self):
        network = PersonalNetwork(0, size=3, storage=1)
        network.consider(1, 2.0, _digest(1))
        network.store_profile(1, UserProfile(1, [(1, 0)]))
        network.consider(2, 9.0, _digest(2))
        # User 2 outranks user 1; user 1's replica must have been demoted.
        assert network.stored_ids() == []
        assert network.profiles_wanted() == [2]

    def test_unstored_ids_is_the_remaining_list(self):
        network = PersonalNetwork(0, size=3, storage=1)
        network.consider(1, 5.0, _digest(1))
        network.consider(2, 3.0, _digest(2))
        network.consider(3, 1.0, _digest(3))
        network.store_profile(1, UserProfile(1, [(1, 0)]))
        assert network.unstored_ids() == [2, 3]

    def test_profiles_wanted_includes_stale_replicas(self):
        network = PersonalNetwork(0, size=2, storage=2)
        network.consider(1, 5.0, _digest(1, version=0))
        network.store_profile(1, UserProfile(1, [(1, 0)]))
        assert network.profiles_wanted() == []
        network.consider(1, 5.0, _digest(1, version=3))
        assert network.profiles_wanted() == [1]

    def test_select_oldest_prefers_never_gossiped(self):
        network = PersonalNetwork(0, size=3, storage=3)
        network.consider(1, 5.0, _digest(1))
        network.consider(2, 3.0, _digest(2))
        first = network.select_oldest()
        network.mark_gossiped(first)
        second = network.select_oldest()
        assert second != first

    def test_mark_gossiped_ages_other_entries(self):
        network = PersonalNetwork(0, size=3, storage=3)
        network.consider(1, 5.0, _digest(1))
        network.consider(2, 3.0, _digest(2))
        network.mark_gossiped(1)
        assert network.entry(1).timestamp == 0
        assert network.entry(2).timestamp == 1

    def test_select_oldest_with_restriction(self):
        network = PersonalNetwork(0, size=3, storage=3)
        network.consider(1, 5.0, _digest(1))
        network.consider(2, 3.0, _digest(2))
        assert network.select_oldest(restrict_to=[2]) == 2
        assert network.select_oldest(restrict_to=[99]) is None

    def test_stored_profile_length(self):
        network = PersonalNetwork(0, size=2, storage=2)
        network.consider(1, 5.0, _digest(1))
        network.store_profile(1, UserProfile(1, [(1, 0), (2, 0), (3, 0)]))
        assert network.stored_profile_length() == 3

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.floats(min_value=0.0, max_value=50.0)),
            max_size=60,
        ),
        st.integers(1, 10),
        st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_arbitrary_considerations(self, updates, size, storage):
        """Whatever the update sequence: at most ``size`` members, all with
        positive scores, stored replicas only among the top ``storage``."""
        network = PersonalNetwork(0, size=size, storage=storage)
        for user_id, score in updates:
            network.consider(user_id, score, _digest(user_id))
            if network.profiles_wanted():
                wanted = network.profiles_wanted()[0]
                network.store_profile(wanted, UserProfile(wanted, [(1, 0)]))
        assert len(network) <= size
        assert all(entry.score > 0 for entry in network.ranked_entries())
        top = set(network.member_ids()[: network.storage])
        assert set(network.stored_ids()) <= top
        assert len(network.stored_ids()) <= network.storage
        # Remaining list plus stored list partitions the membership.
        assert sorted(network.stored_ids() + network.unstored_ids()) == sorted(
            network.member_ids()
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
            unique_by=lambda pair: pair[0],
            max_size=40,
        ),
        st.integers(1, 8),
        st.integers(0, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_install_equals_considering_each_on_an_empty_network(self, pairs, size, storage):
        """One ``install`` plus storing the top replicas leaves the state the
        ``consider`` -> ``profiles_wanted`` -> ``store_profile`` loop leaves:
        on ranked lists with ties, zero scores, the owner's id (0) and more
        triples than ``size``."""
        ranked = [
            (user_id, score, _digest(user_id))
            for user_id, score in sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        ]
        profiles = {user_id: UserProfile(user_id, [(user_id, 0)]) for user_id, _ in pairs}

        oracle = PersonalNetwork(0, size=size, storage=storage)
        for user_id, score, digest in ranked:
            oracle.consider(user_id, score, digest)
        for user_id in oracle.profiles_wanted():
            oracle.store_profile(user_id, profiles[user_id])

        network = PersonalNetwork(0, size=size, storage=storage)
        network.install(iter(ranked))
        for entry in network.ranked_entries()[: network.storage]:
            entry.profile = profiles[entry.user_id].copy()

        def state(view):
            return [
                (
                    entry.user_id,
                    entry.score,
                    id(entry.digest),
                    entry.timestamp,
                    None if entry.profile is None else entry.profile.actions,
                )
                for entry in view.ranked_entries()
            ]

        assert state(network) == state(oracle)
        assert list(network._entries) == list(oracle._entries)  # iteration order
        assert network.stored_ids() == oracle.stored_ids()
        assert network._storage_boundary == oracle._storage_boundary

    def test_install_replaces_what_the_network_held(self):
        network = PersonalNetwork(0, size=3, storage=1)
        network.consider(1, 5.0, _digest(1))
        network.store_profile(1, UserProfile(1, [(1, 0)]))
        network.mark_gossiped(1)
        network.consider(2, 4.0, _digest(2))
        network.mark_gossiped(1)
        network.install([(3, 2.0, _digest(3)), (2, 1.0, _digest(2))])
        assert network.member_ids() == [3, 2]
        assert [entry.timestamp for entry in network.ranked_entries()] == [0, 0]
        assert network.stored_ids() == []


class TestRandomView:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RandomView(0, size=0)

    def test_merge_caps_size(self):
        view = RandomView(0, size=3)
        rng = random.Random(1)
        view.merge([_digest(i) for i in range(1, 10)], rng)
        assert len(view) == 3

    def test_merge_prefers_newer_versions(self):
        view = RandomView(0, size=5)
        rng = random.Random(1)
        view.merge([_digest(1, version=0)], rng)
        view.merge([_digest(1, version=4)], rng)
        assert [digest.version for digest in view.digests()] == [4]

    def test_merge_never_contains_owner(self):
        view = RandomView(7, size=5)
        view.merge([_digest(7), _digest(1)], random.Random(0))
        assert 7 not in view
        assert 1 in view

    def test_random_partner_none_when_empty(self):
        assert RandomView(0, size=2).random_partner(random.Random(0)) is None

    def test_random_partner_is_a_member(self):
        view = RandomView(0, size=4)
        view.merge([_digest(i) for i in range(1, 5)], random.Random(0))
        partner = view.random_partner(random.Random(1))
        assert partner in view.member_ids()

    @given(st.sets(st.integers(1, 50), max_size=40), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_view_never_exceeds_size(self, user_ids, size):
        view = RandomView(0, size=size)
        view.merge([_digest(uid) for uid in user_ids], random.Random(3))
        assert len(view) <= size
        assert set(view.member_ids()) <= user_ids
