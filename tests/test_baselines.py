"""Tests for the centralized reference."""

from __future__ import annotations

import pytest

from repro.baselines import CentralizedTopK
from repro.data.queries import QueryWorkloadGenerator
from repro.p3q.scoring import partial_scores


@pytest.fixture(scope="module")
def central(synthetic_dataset):
    return CentralizedTopK(synthetic_dataset, network_size=20)


@pytest.fixture(scope="module")
def queries(synthetic_dataset):
    return QueryWorkloadGenerator(synthetic_dataset, seed=5).generate(
        synthetic_dataset.user_ids[:8]
    )


class TestCentralized:
    def test_scores_include_querier_and_neighbours(self, central, synthetic_dataset, queries):
        query = queries[0]
        scores = central.relevance_scores(query)
        profiles = [
            synthetic_dataset.profile(uid)
            for uid in central.personal_network_of(query.querier)
        ] + [synthetic_dataset.profile(query.querier)]
        assert scores == partial_scores(profiles, query)

    def test_top_k_sorted_by_score(self, central, queries):
        top = central.top_k(queries[0], k=10)
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)

    def test_source_item_is_usually_highly_ranked(self, central, queries):
        """The query was generated from an item of the querier's own profile,
        so that item has a positive score and should appear in the results of
        most queries (the paper's workload-generation rationale)."""
        hits = 0
        for query in queries:
            items = central.top_k_items(query, k=10)
            if query.source_item in items:
                hits += 1
        assert hits >= len(queries) // 2

    def test_relevant_items_keyed_by_query_id(self, central, queries):
        references = central.relevant_items(queries, k=5)
        assert set(references) == {query.query_id for query in queries}
        assert all(len(items) <= 5 for items in references.values())

    def test_reuses_provided_ideal_index(self, synthetic_dataset, synthetic_ideal):
        central = CentralizedTopK(synthetic_dataset, network_size=20, ideal=synthetic_ideal)
        assert central.ideal is synthetic_ideal

