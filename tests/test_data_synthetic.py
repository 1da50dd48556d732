"""Tests for the synthetic tagging-trace generator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.data.synthetic import SyntheticConfig, SyntheticTraceGenerator, generate_dataset


class TestSyntheticConfig:
    def test_defaults_are_valid(self):
        config = SyntheticConfig()
        assert config.num_users > 0

    def test_rejects_non_positive_users(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=0)

    def test_rejects_bad_affinity(self):
        with pytest.raises(ValueError):
            SyntheticConfig(community_affinity=1.5)

    def test_rejects_bad_max_tags(self):
        with pytest.raises(ValueError):
            SyntheticConfig(max_tags_per_item=0)

    @pytest.mark.parametrize(
        "field", ["num_items", "num_tags", "num_communities", "max_communities_per_user"]
    )
    def test_rejects_an_empty_pool_naming_the_field(self, field):
        """Rejected at construction, not by an ``IndexError`` or a
        ``randrange`` error deep inside generation."""
        with pytest.raises(ValueError, match=field):
            SyntheticConfig(**{field: 0})


class TestGenerator:
    @pytest.fixture(scope="class")
    def small_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            num_users=50,
            num_items=300,
            num_tags=80,
            num_communities=5,
            mean_actions_per_user=25,
            seed=11,
        )

    @pytest.fixture(scope="class")
    def dataset(self, small_config):
        return generate_dataset(small_config)

    def test_generates_requested_number_of_users(self, dataset, small_config):
        assert len(dataset) == small_config.num_users

    def test_every_profile_is_non_empty(self, dataset):
        assert all(len(profile) > 0 for profile in dataset.profiles())

    def test_items_and_tags_within_configured_ranges(self, dataset, small_config):
        assert max(dataset.items()) < small_config.num_items
        assert max(dataset.tags()) < small_config.num_tags

    def test_deterministic_given_seed(self, small_config):
        a = generate_dataset(small_config)
        b = generate_dataset(small_config)
        for uid in a.user_ids:
            assert a.profile(uid).actions == b.profile(uid).actions

    def test_different_seed_gives_different_trace(self, small_config):
        other = SyntheticConfig(
            num_users=small_config.num_users,
            num_items=small_config.num_items,
            num_tags=small_config.num_tags,
            num_communities=small_config.num_communities,
            mean_actions_per_user=small_config.mean_actions_per_user,
            seed=small_config.seed + 1,
        )
        a = generate_dataset(small_config)
        b = generate_dataset(other)
        assert any(a.profile(uid).actions != b.profile(uid).actions for uid in a.user_ids)

    def test_long_tail_item_popularity(self, dataset):
        """Most items are tagged by few users: the median popularity must sit
        well below the maximum (the long-tail property the paper relies on)."""
        popularity = sorted(
            Counter(item for profile in dataset.profiles() for item in profile.items).values()
        )
        median = popularity[len(popularity) // 2]
        assert median * 3 <= popularity[-1]

    def test_activity_is_skewed(self, dataset):
        lengths = sorted(len(p) for p in dataset.profiles())
        assert lengths[-1] > 2 * lengths[len(lengths) // 2]

    def test_community_members_share_more_than_strangers(self, small_config):
        """Users sharing a community overlap more than users who do not --
        the property that makes similarity-biased gossip useful."""
        generator = SyntheticTraceGenerator(small_config)
        dataset = generator.generate()
        memberships = generator.community_memberships()

        def overlap(a: int, b: int) -> int:
            return len(dataset.profile(a).actions & dataset.profile(b).actions)

        same_comm, diff_comm = [], []
        user_ids = dataset.user_ids
        for i, ua in enumerate(user_ids):
            for ub in user_ids[i + 1:]:
                value = overlap(ua, ub)
                if set(memberships[ua]) & set(memberships[ub]):
                    same_comm.append(value)
                else:
                    diff_comm.append(value)
        assert same_comm, "expected at least one same-community pair"
        mean_same = sum(same_comm) / len(same_comm)
        mean_diff = sum(diff_comm) / len(diff_comm) if diff_comm else 0.0
        assert mean_same > mean_diff

    def test_community_memberships_are_deterministic(self, small_config):
        a = SyntheticTraceGenerator(small_config).community_memberships()
        b = SyntheticTraceGenerator(small_config).community_memberships()
        assert a == b
