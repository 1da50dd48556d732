"""Tests for the evaluation metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    average_recall,
    average_success_ratio,
    average_update_rate,
    fraction_below_full_recall,
    fraction_with_complete_new_network,
    profiles_to_update,
    recall,
    recall_per_cycle,
    success_ratio,
    update_rate,
)
from repro.metrics.bandwidth import (
    average_partial_result_messages,
    average_query_bytes,
    query_traffic_breakdown,
    storage_requirements,
)
from repro.p3q.query import CycleSnapshot
from repro.simulator.stats import (
    KIND_PARTIAL_RESULT,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
    StatsCollector,
)


class TestRecall:
    def test_perfect_recall(self):
        assert recall([1, 2, 3], [1, 2, 3]) == 1.0

    def test_partial_recall(self):
        assert recall([1, 9, 8], [1, 2, 3]) == pytest.approx(1 / 3)

    def test_empty_reference_is_full_recall(self):
        assert recall([], []) == 1.0

    def test_order_and_duplicates_do_not_matter(self):
        assert recall([3, 2, 1, 1], [1, 2, 3]) == 1.0

    def test_average_recall_counts_missing_queries_as_zero(self):
        references = {1: [1, 2], 2: [3]}
        results = {1: [1, 2]}
        assert average_recall(results, references) == pytest.approx(0.5)

    def test_average_recall_empty_reference_set(self):
        assert average_recall({}, {}) == 1.0

    def test_fraction_below_full_recall(self):
        references = {1: [1], 2: [2], 3: [3]}
        results = {1: [1], 2: [9], 3: [3]}
        assert fraction_below_full_recall(results, references) == pytest.approx(1 / 3)

    def test_recall_per_cycle_carries_results_forward(self):
        snapshots = {
            1: [
                CycleSnapshot(cycle=0, top_k=[(9, 1.0)], profiles_used=1, profiles_total=2),
                CycleSnapshot(cycle=2, top_k=[(1, 2.0)], profiles_used=2, profiles_total=2),
            ]
        }
        series = recall_per_cycle(snapshots, {1: [1]}, cycles=3)
        assert series == [0.0, 0.0, 1.0, 1.0]

    @given(
        st.sets(st.integers(0, 30), max_size=10),
        st.sets(st.integers(0, 30), min_size=1, max_size=10),
    )
    @settings(max_examples=60)
    def test_recall_bounds(self, retrieved, relevant):
        value = recall(sorted(retrieved), sorted(relevant))
        assert 0.0 <= value <= 1.0
        if relevant <= retrieved:
            assert value == 1.0


class TestConvergenceMetrics:
    def test_success_ratio(self):
        assert success_ratio([1, 2, 3, 4], [1, 2]) == 0.5
        assert success_ratio([], [1]) == 1.0

    def test_average_success_ratio_full_knowledge(self, synthetic_ideal, synthetic_dataset):
        discovered = {
            uid: synthetic_ideal.neighbour_ids(uid) for uid in synthetic_dataset.user_ids
        }
        assert average_success_ratio(synthetic_ideal, discovered) == pytest.approx(1.0)

    def test_average_success_ratio_no_knowledge(self, synthetic_ideal):
        value = average_success_ratio(synthetic_ideal, {})
        assert 0.0 <= value < 0.5

    def test_fraction_with_complete_new_network(self):
        required = {1: {10, 11}, 2: {12}}
        discovered = {1: [10, 11, 99], 2: [13]}
        assert fraction_with_complete_new_network(required, discovered) == 0.5
        assert fraction_with_complete_new_network({}, discovered) == 1.0


class TestFreshnessMetrics:
    def test_update_rate_none_when_nothing_to_update(self):
        assert update_rate({1: 0}, {1: 0, 2: 3}, changed_users={2}) is None

    def test_update_rate_counts_fresh_replicas(self):
        stored = {1: 2, 2: 0}
        current = {1: 2, 2: 3}
        assert update_rate(stored, current, changed_users={1, 2}) == 0.5

    def test_average_update_rate_excludes_unaffected_owners(self):
        replicas = {10: {1: 0}, 11: {2: 5}}
        current = {1: 3, 2: 5}
        # Owner 10 stores a stale replica of changed user 1; owner 11 stores
        # user 2 who did not change -> only owner 10 enters the average.
        assert average_update_rate(replicas, current, changed_users={1}) == 0.0

    def test_average_update_rate_restrict_to(self):
        replicas = {10: {1: 0}, 11: {1: 3}}
        current = {1: 3}
        assert average_update_rate(replicas, current, {1}, restrict_to=[11]) == 1.0

    def test_average_update_rate_defaults_to_one(self):
        assert average_update_rate({}, {}, set()) == 1.0

    def test_profiles_to_update(self):
        replicas = {10: {1: 0, 2: 0}, 11: {3: 0}}
        result = profiles_to_update(replicas, changed_users={1, 2})
        assert result == {10: 2}


class TestBandwidthMetrics:
    def _stats(self) -> StatsCollector:
        stats = StatsCollector()
        stats.record(0, 1, 2, KIND_REMAINING_FORWARD, 100, query_id=1)
        stats.record(0, 2, 1, KIND_REMAINING_RETURN, 40, query_id=1)
        stats.record(0, 2, 0, KIND_PARTIAL_RESULT, 300, query_id=1)
        stats.record(1, 3, 0, KIND_PARTIAL_RESULT, 500, query_id=2)
        return stats

    def test_query_traffic_breakdown(self):
        rows = query_traffic_breakdown(self._stats())
        assert len(rows) == 2
        by_id = {row.query_id: row for row in rows}
        assert by_id[1].partial_results_bytes == 300
        assert by_id[1].forwarded_remaining_bytes == 100
        assert by_id[1].returned_remaining_bytes == 40
        assert by_id[1].total_bytes == 440
        assert by_id[2].partial_result_messages == 1

    def test_rows_sorted_by_partial_result_bytes(self):
        rows = query_traffic_breakdown(self._stats())
        assert rows[0].partial_results_bytes <= rows[1].partial_results_bytes

    def test_averages(self):
        rows = query_traffic_breakdown(self._stats())
        assert average_query_bytes(rows) == pytest.approx((440 + 500) / 2)
        assert average_partial_result_messages(rows) == pytest.approx(1.0)
        assert average_query_bytes([]) == 0.0

    def test_storage_requirements_sorted(self):
        rows = storage_requirements({1: 50, 2: 10}, {1: 3, 2: 1})
        assert [row.user_id for row in rows] == [2, 1]
