"""StatsCollector ``flush_every``: bounded memory, exact aggregates.

The contract: folding the raw row buffer into the aggregates at cycle
boundaries must leave every aggregate view (bytes by kind, cycle and query,
messages by kind and query, per-query receivers, derived bandwidth)
exactly as if no flush had happened; only the materialized ``records``
list degrades to the retained rows.
"""

from __future__ import annotations

import pytest

from repro.data import SyntheticConfig, generate_dataset
from repro.data.queries import QueryWorkloadGenerator
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator.stats import StatsCollector


def _record_burst(stats: StatsCollector) -> None:
    for cycle in range(4):
        for sender in range(5):
            stats.record(cycle, sender, (sender + 1) % 5, "kind_a", 10)
            stats.record(cycle, sender, (sender + 2) % 5, "kind_b", 7, query_id=cycle % 2)


class TestFlushSemantics:
    def test_aggregates_identical_with_and_without_flush(self):
        plain = StatsCollector()
        flushed = StatsCollector(flush_every=1)
        _record_burst(plain)
        _record_burst(flushed)
        flushed.flush()
        assert plain.bytes_by_kind() == flushed.bytes_by_kind()
        assert plain.bytes_by_cycle() == flushed.bytes_by_cycle()
        assert plain.total_messages() == flushed.total_messages()
        assert plain.query_ids() == flushed.query_ids()
        for query_id in plain.query_ids():
            assert plain.query_bytes(query_id) == flushed.query_bytes(query_id)
            assert plain.query_messages(query_id) == flushed.query_messages(query_id)

    def test_query_receivers_exact_across_flushes(self):
        plain = StatsCollector()
        flushed = StatsCollector(flush_every=1)
        _record_burst(plain)
        _record_burst(flushed)
        flushed.flush()
        # More traffic after the flush: both epochs must contribute.
        plain.record(9, 1, 4, "kind_b", 7, query_id=0)
        flushed.record(9, 1, 4, "kind_b", 7, query_id=0)
        assert plain.query_receivers(0, "kind_b") == flushed.query_receivers(0, "kind_b")

    def test_flush_drops_rows(self):
        stats = StatsCollector(flush_every=1)
        _record_burst(stats)
        assert len(stats.records) == 40
        dropped = stats.flush()
        assert dropped == 40
        assert stats.records == []
        # Aggregates survive the drop.
        assert stats.total_messages() == 40

    def test_maybe_flush_respects_period(self):
        stats = StatsCollector(flush_every=3)
        stats.record(0, 1, 2, "kind_a", 1)
        assert stats.maybe_flush() is False
        assert stats.maybe_flush() is False
        assert stats.maybe_flush() is True
        assert stats.records == []

    def test_no_flush_when_unset(self):
        stats = StatsCollector()
        stats.record(0, 1, 2, "kind_a", 1)
        assert stats.maybe_flush() is False
        assert len(stats.records) == 1

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            StatsCollector(flush_every=0)


class TestSimulationFlushEquivalence:
    def test_flushed_simulation_matches_unflushed_aggregates(self):
        """End to end: a flushed run reports identical traffic aggregates."""

        def run(flush_every):
            dataset = generate_dataset(
                SyntheticConfig(
                    num_users=30,
                    num_items=200,
                    num_tags=60,
                    num_communities=3,
                    mean_actions_per_user=18,
                    seed=4,
                )
            )
            sim = P3QSimulation(
                dataset,
                P3QConfig(
                    network_size=8,
                    storage=3,
                    seed=2,
                    digest_bits=512,
                    digest_hashes=3,
                    stats_flush_every=flush_every,
                ),
            )
            sim.bootstrap_random_views()
            sim.run_lazy(4)
            workload = QueryWorkloadGenerator(sim.dataset, seed=2)
            sim.issue_queries([workload.query_for(user_id=uid) for uid in sim.dataset.user_ids[:3]])
            sim.run_eager(6, stop_when_idle=False)
            return sim

        plain = run(None)
        flushed = run(1)
        assert plain.stats.bytes_by_kind() == flushed.stats.bytes_by_kind()
        assert plain.stats.bytes_by_cycle() == flushed.stats.bytes_by_cycle()
        assert plain.stats.total_messages() == flushed.stats.total_messages()
        for query_id in plain.stats.query_ids():
            assert plain.users_reached(query_id) == flushed.users_reached(query_id)
        # The flushed run retained at most one cycle of rows.
        assert len(flushed.stats.records) < len(plain.stats.records)
