"""Tests for the experiment runners (tiny scale) and scenario builders."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentScale,
    PAPER_STORAGE_LEVELS,
    format_series,
    format_table,
    poisson_storage_distribution,
    prepare_workload,
    run_alpha_analysis,
    run_alpha_recall,
    run_convergence,
    run_storage_recall,
    run_table1,
    run_table2,
    storage_level_fractions,
    storage_level_probabilities,
)
from repro.experiments.ablations import run_exchange_ablation
from repro.experiments.fig11_churn import run_churn
from repro.experiments.fig8_reach import run_users_reached


@pytest.fixture(scope="module")
def tiny_scale() -> ExperimentScale:
    return ExperimentScale.tiny(seed=21)


@pytest.fixture(scope="module")
def tiny_workload(tiny_scale):
    return prepare_workload(tiny_scale, num_queries=8)


class TestScenarios:
    def test_poisson_probabilities_match_table1_lambda1(self):
        probabilities = storage_level_probabilities(1.0)
        assert probabilities[0] == pytest.approx(0.3679, abs=5e-4)
        assert probabilities[1] == pytest.approx(0.3679, abs=5e-4)
        assert probabilities[2] == pytest.approx(0.1839, abs=5e-4)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_poisson_probabilities_match_table1_lambda4(self):
        probabilities = storage_level_probabilities(4.0)
        assert probabilities[0] == pytest.approx(0.0206, abs=2e-3)
        assert probabilities[-1] == pytest.approx(0.1173, abs=2e-3)

    def test_poisson_distribution_uses_configured_levels(self):
        assignment = poisson_storage_distribution(range(200), 1.0, seed=1)
        assert set(assignment.values()) <= set(PAPER_STORAGE_LEVELS)

    def test_poisson_distribution_empirically_close(self):
        assignment = poisson_storage_distribution(range(5000), 1.0, seed=2)
        fractions = storage_level_fractions(assignment)
        assert fractions[10] == pytest.approx(0.368, abs=0.03)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            storage_level_probabilities(0.0)

    def test_scales_build_datasets(self, tiny_scale):
        dataset = tiny_scale.build_dataset()
        assert len(dataset) == tiny_scale.num_users

    def test_paper_scale_parameters(self):
        paper = ExperimentScale.paper()
        assert paper.num_users == 10_000
        assert paper.network_size == 1_000
        assert paper.storage_levels == PAPER_STORAGE_LEVELS


class TestReport:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("x", [0, 1], [("s1", [0.1, 0.2]), ("s2", [0.3])])
        assert "s1" in text and "s2" in text
        # Missing trailing values render as blanks, not crashes.
        assert text.splitlines()[-1].startswith("1")


class TestRunners:
    def test_table1(self):
        result = run_table1(num_users=300, seed=3)
        assert result.levels == PAPER_STORAGE_LEVELS
        text = result.render()
        assert "lambda=1" in text and "c=1000" in text

    def test_alpha_analysis_optimum_at_half(self):
        result = run_alpha_analysis(length=500, found_per_hop=10)
        assert result.best_alpha() == 0.5
        assert result.closed_form(0.5) < result.closed_form(0.9)
        assert "R(alpha)" in result.render()

    def test_convergence_improves_with_cycles_and_storage(self, tiny_scale):
        result = run_convergence(
            tiny_scale, storages=[2, 8], cycles=10, sample_every=5
        )
        for storage in (2, 8):
            series = result.series[storage]
            assert series[-1] > series[0]
        assert result.final_ratio(8) >= result.final_ratio(2) - 0.05
        assert "c=2" in result.render()

    def test_storage_recall_reaches_one(self, tiny_scale, tiny_workload):
        result = run_storage_recall(
            tiny_scale, storages=[3, 10], cycles=12, workload=tiny_workload
        )
        for storage in (3, 10):
            assert result.final_recall(storage) == pytest.approx(1.0)
        assert result.recall_at(10, 0) >= result.recall_at(3, 0) - 1e-9

    def test_alpha_recall_orders_alphas(self, tiny_scale, tiny_workload):
        result = run_alpha_recall(
            tiny_scale,
            alphas=(0.0, 0.5),
            storage=2,
            cycles=12,
            workload=tiny_workload,
        )
        # alpha = 0.5 must reach full recall no later than alpha = 0.
        half = result.cycles_to_reach(0.5, 0.999)
        zero = result.cycles_to_reach(0.0, 0.999)
        assert half is not None
        if zero is not None:
            assert half <= zero

    def test_table2_monotone_in_storage(self, tiny_scale, tiny_workload):
        result = run_table2(tiny_scale, storages=[2, 10], workload=tiny_workload)
        by_storage = {row.storage: row for row in result.rows_by_storage}
        assert by_storage[10].affected_fraction >= by_storage[2].affected_fraction
        assert by_storage[10].average_to_update >= by_storage[2].average_to_update

    def test_users_reached_more_with_less_storage(self, tiny_scale, tiny_workload):
        result = run_users_reached(tiny_scale, cycles=10, workload=tiny_workload)
        assert result.average(1.0) >= result.average(4.0)

    def test_churn_degrades_recall(self, tiny_scale, tiny_workload):
        result = run_churn(
            tiny_scale,
            lambdas=(1.0,),
            departures=(0.0, 0.7),
            cycles=8,
            workload=tiny_workload,
        )
        assert result.final_recall(1.0, 0.0) == pytest.approx(1.0)
        assert result.final_recall(1.0, 0.7) <= result.final_recall(1.0, 0.0)
        assert result.incomplete_queries[1.0][0.7] >= result.incomplete_queries[1.0][0.0]

    def test_exchange_ablation_saves_payload(self, tiny_scale):
        result = run_exchange_ablation(tiny_scale, cycles=4)
        assert result.payload_savings_factor > 1.0
        assert "savings factor" in result.render()
