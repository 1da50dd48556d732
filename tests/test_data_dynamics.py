"""Tests for profile-change and churn trace generation."""

from __future__ import annotations

import pytest

from repro.data.dynamics import (
    ChurnEvent,
    DynamicsConfig,
    ProfileDynamicsGenerator,
    apply_change_day,
    massive_departure,
)


class TestDynamicsConfig:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            DynamicsConfig(change_fraction=1.5)

    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            DynamicsConfig(mean_new_actions=0)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            DynamicsConfig(num_days=0)


class TestProfileDynamics:
    def test_change_day_touches_expected_fraction(self, synthetic_dataset):
        config = DynamicsConfig(change_fraction=0.25, seed=1)
        generator = ProfileDynamicsGenerator(synthetic_dataset, config)
        day = generator.generate_day()
        expected = round(len(synthetic_dataset) * 0.25)
        assert abs(len(day.changed_users) - expected) <= 2

    def test_new_actions_are_really_new(self, synthetic_dataset):
        generator = ProfileDynamicsGenerator(synthetic_dataset, DynamicsConfig(seed=2))
        day = generator.generate_day()
        for change in day.changes:
            profile_actions = synthetic_dataset.profile(change.user_id).actions
            for action in change.new_actions:
                assert action not in profile_actions

    def test_change_sizes_respect_cap(self, synthetic_dataset):
        config = DynamicsConfig(mean_new_actions=5, max_new_actions=12, seed=3)
        generator = ProfileDynamicsGenerator(synthetic_dataset, config)
        day = generator.generate_day()
        assert all(1 <= len(change) <= 12 for change in day.changes)

    def test_generate_produces_num_days(self, synthetic_dataset):
        config = DynamicsConfig(num_days=3, seed=4)
        days = ProfileDynamicsGenerator(synthetic_dataset, config).generate()
        assert [day.day for day in days] == [0, 1, 2]

    def test_deterministic_given_seed(self, synthetic_dataset):
        a = ProfileDynamicsGenerator(synthetic_dataset, DynamicsConfig(seed=9)).generate_day()
        b = ProfileDynamicsGenerator(synthetic_dataset, DynamicsConfig(seed=9)).generate_day()
        assert a.changed_users == b.changed_users
        assert [c.new_actions for c in a.changes] == [c.new_actions for c in b.changes]

    def test_apply_change_day_mutates_profiles(self, synthetic_dataset):
        dataset = synthetic_dataset.copy()
        generator = ProfileDynamicsGenerator(dataset, DynamicsConfig(seed=5))
        day = generator.generate_day()
        before = {uid: dataset.profile(uid).version for uid in day.changed_users}
        applied = apply_change_day(dataset, day)
        assert set(applied) == set(day.changed_users)
        for change in day.changes:
            profile = dataset.profile(change.user_id)
            assert profile.version == before[change.user_id] + applied[change.user_id]
            for action in change.new_actions:
                assert action in profile

    def test_empty_dataset_rejected(self):
        from repro.data.models import Dataset, UserProfile

        empty = Dataset({0: UserProfile(0)})
        with pytest.raises(ValueError):
            ProfileDynamicsGenerator(empty)


class TestChurn:
    def test_departure_fraction(self, synthetic_dataset):
        event = massive_departure(synthetic_dataset, fraction=0.5, seed=1)
        assert len(event.departing_users) == round(0.5 * len(synthetic_dataset))

    def test_protected_users_never_depart(self, synthetic_dataset):
        protected = synthetic_dataset.user_ids[:5]
        event = massive_departure(synthetic_dataset, fraction=0.9, seed=2, protect=protected)
        assert not set(protected) & set(event.departing_users)

    def test_zero_fraction_departs_nobody(self, synthetic_dataset):
        event = massive_departure(synthetic_dataset, fraction=0.0)
        assert len(event.departing_users) == 0

    def test_invalid_fraction_rejected(self, synthetic_dataset):
        with pytest.raises(ValueError):
            massive_departure(synthetic_dataset, fraction=1.2)

    def test_deterministic_given_seed(self, synthetic_dataset):
        a = massive_departure(synthetic_dataset, fraction=0.3, seed=7)
        b = massive_departure(synthetic_dataset, fraction=0.3, seed=7)
        assert a.departing_users == b.departing_users

    def test_event_records_cycle(self, synthetic_dataset):
        event = massive_departure(synthetic_dataset, fraction=0.1, cycle=4)
        assert isinstance(event, ChurnEvent)
        assert event.cycle == 4
