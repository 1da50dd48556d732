"""Tests for the query-serving subsystem (workloads, driver, resources)."""

from __future__ import annotations

import pytest

from repro.p3q.protocol import P3QSimulation
from repro.serving import (
    ABANDONED,
    COMPLETED,
    WORKLOADS,
    ServingConfig,
    ServingResult,
    build_workload,
    hot_topic_workload,
    long_tail_workload,
    mixed_workload,
    percentile,
    run_serving,
)
from repro.serving.resources import ResourceProbe, cpu_seconds, peak_rss_bytes
from repro.simulator.stats import StatsCollector


class TestWorkloads:
    def test_hot_topic_shares_one_query_across_queriers(self, synthetic_dataset):
        workload = hot_topic_workload(synthetic_dataset, num_queries=8, seed=3)
        assert workload.name == "hot-topic"
        assert len(workload.queries) == 8
        tags = {q.tags for q in workload.queries}
        assert len(tags) == 1  # the flash crowd asks the same thing
        assert len({q.querier for q in workload.queries}) == 8
        assert len({q.query_id for q in workload.queries}) == 8

    def test_long_tail_queries_are_personalized(self, synthetic_dataset):
        workload = long_tail_workload(synthetic_dataset, num_queries=10, seed=3)
        # Tags come from each querier's own profile.
        for query in workload.queries:
            profile = synthetic_dataset.profile(query.querier)
            assert set(query.tags) <= {tag for _item, tag in profile}

    def test_mixed_schedules_change_days(self, synthetic_dataset):
        workload = mixed_workload(
            synthetic_dataset, num_queries=6, seed=3, change_every=4, num_change_days=2
        )
        assert sorted(workload.change_schedule) == [4, 8]
        for change_day in workload.change_schedule.values():
            assert change_day.changes

    def test_builders_are_deterministic(self, synthetic_dataset):
        a = build_workload("hot-topic", synthetic_dataset, 6, seed=5)
        b = build_workload("hot-topic", synthetic_dataset, 6, seed=5)
        assert a.queries == b.queries

    def test_query_id_base_offsets_ids(self, synthetic_dataset):
        workload = build_workload(
            "long-tail", synthetic_dataset, 5, seed=5, query_id_base=1_000
        )
        assert all(q.query_id >= 1_000 for q in workload.queries)

    def test_unknown_workload_name(self, synthetic_dataset):
        with pytest.raises(ValueError, match="unknown serving workload"):
            build_workload("nope", synthetic_dataset, 5)


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(concurrency=0)
        with pytest.raises(ValueError):
            ServingConfig(arrivals_per_cycle=0)
        with pytest.raises(ValueError):
            ServingConfig(cutoff_cycles=0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 50) == 5
        assert percentile(values, 95) == 10
        assert percentile(values, 100) == 10
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0)


class TestDriver:
    def _run(self, simulation, workload, **overrides):
        defaults = dict(
            concurrency=4, arrivals_per_cycle=2, max_cycles=60, cutoff_cycles=20
        )
        defaults.update(overrides)
        return run_serving(simulation, workload, ServingConfig(**defaults))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_completes_catalogue_workload_on_converged_network(self, warm_simulation, name):
        workload = build_workload(name, warm_simulation.dataset, num_queries=8, seed=3)
        result = self._run(warm_simulation, workload)
        assert len(result.outcomes) == 8
        assert result.completed == 8
        assert result.qps_cycle > 0
        assert result.qps_wall > 0
        # Every completed query carries its issue-to-close latency.
        latencies = result.latencies()
        assert len(latencies) == 8
        assert all(lat >= 0 for lat in latencies)
        assert result.latency_percentile(50) <= result.latency_percentile(95)
        assert result.latency_percentile(95) <= result.latency_percentile(99)

    def test_steady_state_injection_stamps_issue_cycles(self, warm_simulation):
        # More queries than concurrency * one cycle: later queries are
        # admitted after eager cycles already ran, so their sessions must
        # carry the later issue cycle (the latency fix under test).
        workload = long_tail_workload(
            warm_simulation.dataset, num_queries=10, seed=3
        )
        self._run(warm_simulation, workload, concurrency=2, arrivals_per_cycle=1)
        issue_cycles = {
            s.issued_cycle for s in warm_simulation.sessions().values()
        }
        assert len(issue_cycles) > 1
        assert max(issue_cycles) > 0

    def test_cutoff_abandons_slow_queries_with_coverage(self, warm_simulation):
        workload = long_tail_workload(
            warm_simulation.dataset, num_queries=6, seed=3
        )
        result = self._run(warm_simulation, workload, cutoff_cycles=1)
        assert result.completed + result.abandoned + result.rejected == 6
        for outcome in result.outcomes:
            if outcome.status == ABANDONED:
                assert 0.0 <= outcome.coverage < 1.0
                assert outcome.latency_cycles is None
            elif outcome.status == COMPLETED:
                assert outcome.coverage == pytest.approx(1.0)

    def test_mixed_workload_applies_dynamics(self, warm_simulation):
        workload = mixed_workload(
            warm_simulation.dataset,
            num_queries=8,
            seed=3,
            change_every=2,
            num_change_days=2,
        )
        result = self._run(
            warm_simulation, workload, concurrency=2, arrivals_per_cycle=1
        )
        assert result.change_days_applied >= 1
        assert result.completed + result.abandoned + result.rejected == 8

    def test_as_dict_reports_the_schema_fields(self, warm_simulation):
        workload = hot_topic_workload(warm_simulation.dataset, num_queries=5, seed=3)
        result = self._run(warm_simulation, workload)
        entry = result.as_dict()
        for key in (
            "workload",
            "concurrency",
            "num_queries",
            "completed",
            "qps_cycle",
            "qps_wall",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "coverage_at_cutoff",
            "messages",
            "wall_seconds",
            "cpu_seconds",
        ):
            assert key in entry
        assert entry["messages"] > 0


class TestEagerCycleClock:
    def test_issue_queries_stamps_the_current_eager_cycle(
        self, synthetic_dataset, small_config
    ):
        from repro.data.queries import QueryWorkloadGenerator

        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.warm_start()
        simulation.bootstrap_random_views()
        generator = QueryWorkloadGenerator(simulation.dataset, seed=5)
        first = generator.query_for(simulation.dataset.user_ids[0], query_id=900)
        simulation.issue_queries([first])
        simulation.run_eager(3, stop_when_idle=False)
        assert simulation.eager_cycles_run == 3
        second = generator.query_for(simulation.dataset.user_ids[1], query_id=901)
        sessions = simulation.issue_queries([second])
        assert sessions[901].issued_cycle == 3


class TestResources:
    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 0

    def test_probe_envelope(self):
        probe = ResourceProbe()
        sum(i * i for i in range(10_000))
        envelope = probe.stop()
        assert envelope.wall_seconds >= 0
        assert envelope.cpu_seconds >= 0
        payload = envelope.as_dict()
        assert "wall_seconds" in payload and "cpu_seconds" in payload

    def test_cpu_seconds_monotone(self):
        before = cpu_seconds()
        sum(i * i for i in range(10_000))
        assert cpu_seconds() >= before


class TestMessagesByCycle:
    def test_view_matches_totals(self):
        stats = StatsCollector()
        stats.record(0, 1, 2, "k", 10)
        stats.record(0, 2, 3, "k", 10)
        stats.record(1, 1, 2, "k", 10)
        assert stats.messages_by_cycle() == {0: 2, 1: 1}
        assert sum(stats.messages_by_cycle().values()) == stats.total_messages()

    def test_exact_across_flushes(self):
        stats = StatsCollector(flush_every=1)
        stats.record(0, 1, 2, "k", 10)
        stats.maybe_flush()
        stats.record(1, 1, 2, "k", 10)
        assert stats.messages_by_cycle() == {0: 1, 1: 1}

    def test_merge_folds_counts(self):
        a, b = StatsCollector(), StatsCollector()
        a.record(0, 1, 2, "k", 10)
        b.record(0, 3, 4, "k", 10)
        b.record(2, 3, 4, "k", 10)
        a.merge(b)
        assert a.messages_by_cycle() == {0: 2, 2: 1}
