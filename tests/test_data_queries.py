"""Tests for query-workload generation."""

from __future__ import annotations

import pytest

from repro.data.models import Dataset, UserProfile
from repro.data.queries import Query, QueryWorkloadGenerator


class TestQuery:
    def test_requires_at_least_one_tag(self):
        with pytest.raises(ValueError):
            Query(query_id=0, querier=1, tags=())


class TestWorkloadGenerator:
    def test_query_tags_come_from_source_item(self, synthetic_dataset):
        generator = QueryWorkloadGenerator(synthetic_dataset, seed=1)
        user_id = synthetic_dataset.user_ids[0]
        query = generator.query_for(user_id)
        assert query is not None
        profile = synthetic_dataset.profile(user_id)
        assert query.source_item in profile.items
        assert set(query.tags) == set(profile.tags_for(query.source_item))

    def test_query_owner_is_the_requested_user(self, synthetic_dataset):
        generator = QueryWorkloadGenerator(synthetic_dataset, seed=2)
        query = generator.query_for(synthetic_dataset.user_ids[3])
        assert query.querier == synthetic_dataset.user_ids[3]

    def test_one_query_per_user(self, synthetic_dataset):
        generator = QueryWorkloadGenerator(synthetic_dataset, seed=3)
        queries = generator.generate()
        assert len(queries) == len(synthetic_dataset)
        assert len({q.querier for q in queries}) == len(queries)

    def test_query_ids_are_unique(self, synthetic_dataset):
        queries = QueryWorkloadGenerator(synthetic_dataset, seed=4).generate()
        assert len({q.query_id for q in queries}) == len(queries)

    def test_empty_profile_skipped(self):
        dataset = Dataset({0: UserProfile(0), 1: UserProfile(1, [(1, 2)])})
        generator = QueryWorkloadGenerator(dataset, seed=5)
        assert generator.query_for(0) is None
        queries = generator.generate()
        assert [q.querier for q in queries] == [1]

    def test_deterministic_given_seed(self, synthetic_dataset):
        a = QueryWorkloadGenerator(synthetic_dataset, seed=8).generate()
        b = QueryWorkloadGenerator(synthetic_dataset, seed=8).generate()
        assert [(q.querier, q.tags) for q in a] == [(q.querier, q.tags) for q in b]
