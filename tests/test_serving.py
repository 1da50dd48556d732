"""Tests for what the closed-loop serving paths share (outcomes, percentile,
peak RSS) and the eager-cycle clock their sessions are stamped with."""

from __future__ import annotations

import pytest

from repro.p3q.protocol import P3QSimulation
from repro.serving import percentile
from repro.serving.resources import peak_rss_bytes


class TestPercentile:
    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 50) == 5
        assert percentile(values, 95) == 10
        assert percentile(values, 100) == 10
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0)


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
