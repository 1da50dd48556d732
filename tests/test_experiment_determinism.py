"""Golden and determinism regression tests for the experiment harness.

Two pins, in the spirit of the transport golden fixture:

* the ``fig-loss`` experiment at the default (small) scale must render
  byte-identically to the committed ``results/test_fig_loss.txt`` -- the
  loss sweep covers the whole lossy-transport stack (seeded drops, stranded
  queries, sender-side byte accounting), so any behavioural drift in that
  stack shows up as a diff of this report;
* ``run_experiments_parallel`` with several workers must produce reports
  byte-identical to a serial run -- each worker rebuilds its seeded
  workload from scratch, so process fan-out is a pure wall-clock
  optimisation, never a source of divergence.

The adversarial figures (``fig-partition``, ``fig-free-riders``) are pinned
the same way: together they cover the conditioned transport (partition cuts,
held envelopes, heal-cycle delivery) and the free-rider paths end to end.

Regenerate a pin (only after an *intentional* behaviour change) with::

    PYTHONPATH=src python -m repro experiments fig-loss --output results/
    mv results/fig-loss.txt results/test_fig_loss.txt

(and analogously ``fig-partition`` -> ``test_fig_partition.txt``,
``fig-free-riders`` -> ``test_fig_free_riders.txt``).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import ExperimentScale, prepare_workload
from repro.experiments.fig_adversarial import run_free_rider_sweep, run_partition_heal
from repro.experiments.fig_loss import run_loss_sweep
from repro.experiments.runner import run_experiments_parallel

_RESULTS = Path(__file__).parent.parent / "results"
GOLDEN_FIG_LOSS = _RESULTS / "test_fig_loss.txt"
GOLDEN_FIG_PARTITION = _RESULTS / "test_fig_partition.txt"
GOLDEN_FIG_FREE_RIDERS = _RESULTS / "test_fig_free_riders.txt"


class TestFigLossGolden:
    def test_loss_sweep_matches_committed_report(self):
        scale = ExperimentScale.small()
        workload = prepare_workload(scale)
        result = run_loss_sweep(scale, cycles=12, workload=workload)
        golden = GOLDEN_FIG_LOSS.read_text(encoding="utf-8")
        assert result.render() + "\n" == golden

    def test_zero_loss_column_dominates(self):
        """Sanity on the pinned numbers: loss can only hurt final recall."""
        golden = GOLDEN_FIG_LOSS.read_text(encoding="utf-8")
        assert "loss=0%" in golden and "loss=40%" in golden


class TestFigPartitionGolden:
    def test_partition_heal_matches_committed_report(self):
        scale = ExperimentScale.small()
        workload = prepare_workload(scale)
        result = run_partition_heal(scale, cycles=12, workload=workload)
        golden = GOLDEN_FIG_PARTITION.read_text(encoding="utf-8")
        assert result.render() + "\n" == golden

    def test_partition_stalls_then_recovers(self):
        """Sanity on the pinned numbers: the cut hurts, the heal helps."""
        golden = GOLDEN_FIG_PARTITION.read_text(encoding="utf-8")
        assert "healthy" in golden and "partitioned" in golden
        assert "messages dropped at the cut" in golden


class TestFigFreeRidersGolden:
    def test_free_rider_sweep_matches_committed_report(self):
        scale = ExperimentScale.small()
        workload = prepare_workload(scale)
        result = run_free_rider_sweep(scale, cycles=12, workload=workload)
        golden = GOLDEN_FIG_FREE_RIDERS.read_text(encoding="utf-8")
        assert result.render() + "\n" == golden

    def test_zero_fraction_column_present(self):
        golden = GOLDEN_FIG_FREE_RIDERS.read_text(encoding="utf-8")
        assert "riders=0%" in golden and "riders=75%" in golden


class TestParallelDeterminism:
    #: Three fast experiments covering the no-workload and workload paths.
    MATRIX = ("analysis", "table1", "fig2")

    def test_four_workers_byte_identical_to_serial(self):
        serial = run_experiments_parallel(self.MATRIX, scale_name="tiny", workers=1)
        parallel = run_experiments_parallel(self.MATRIX, scale_name="tiny", workers=4)
        assert [run.name for run in parallel] == list(self.MATRIX)
        for serial_run, parallel_run in zip(serial, parallel):
            assert serial_run.name == parallel_run.name
            assert serial_run.description == parallel_run.description
            assert serial_run.report == parallel_run.report

    def test_worker_count_does_not_reorder_results(self):
        runs = run_experiments_parallel(self.MATRIX, scale_name="tiny", workers=2)
        assert [run.name for run in runs] == list(self.MATRIX)
