"""Adversarial-condition figures: partition-and-heal, free-rider sweep.

Both experiments go beyond the paper's evaluation (which assumes a
well-behaved network) and exercise the fault-injection conditions of
:mod:`repro.simulator.conditions` end to end:

* **partition-and-heal** -- the converged system answers the query workload
  while a seeded network split cuts the population into components for a
  window of eager cycles.  Messages across the cut are dropped (synchronous
  sends, charged to the sender like any loss) or held in flight until the
  heal cycle (deferred envelopes), so the figure shows recall stalling
  during the cut and recovering after the heal, alongside the per-cycle
  byte series of both runs and the number of cut-dropped messages.

* **free-rider sweep** -- a seeded fraction of the population keeps
  gossiping digests but never serves common-items requests, full-profile
  requests or query forwards (forwarded remaining lists bounce back whole).
  The sweep reports recall per eager cycle, the fraction of queries unable
  to reach full recall and the average bytes spent per query for each
  free-rider fraction.

Runs are fully deterministic: every condition draws from its own seeded RNG
stream, so a zero-width partition window or a 0.0 free-rider fraction is
bit-identical to the unconditioned system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.recall import fraction_below_full_recall, recall_per_cycle
from ..simulator.conditions import PartitionCut, PartitionSpec
from .fig_loss import ConditionSweepResult, run_condition_sweep
from .report import format_series, format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale

#: Free-rider fractions swept by default.
DEFAULT_FREE_RIDER_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 0.75)


@dataclass
class PartitionHealResult:
    """Recall and bandwidth series with and without a partition window."""

    cycles: List[int]
    #: series name -> average recall per eager cycle.
    recall_series: Dict[str, List[float]]
    #: series name -> bytes spent in each eager cycle.
    bytes_series: Dict[str, List[int]]
    partition: PartitionSpec
    #: Messages dropped at the cut (synchronous sends across components).
    cut_drops: int
    #: series name -> fraction of queries below recall 1 at the horizon.
    incomplete_queries: Dict[str, float]

    def final_recall(self, name: str) -> float:
        return self.recall_series[name][-1]

    def render(self) -> str:
        window = (
            f"{self.partition.components} components, cycles "
            f"{self.partition.split_cycle}..{self.partition.heal_cycle - 1}"
        )
        recall = format_series(
            "cycle",
            self.cycles,
            sorted(self.recall_series.items()),
            title=f"Partition and heal: average recall vs eager cycles ({window})",
        )
        bandwidth = format_series(
            "cycle",
            self.cycles[1:],
            [
                (name, [f"{value / 1024:.1f}" for value in values])
                for name, values in sorted(self.bytes_series.items())
            ],
            title="Partition and heal: KB spent per eager cycle",
        )
        rows = [
            [
                name,
                f"{self.final_recall(name):.3f}",
                f"{self.incomplete_queries[name] * 100:.1f}%",
            ]
            for name in sorted(self.recall_series)
        ]
        table = format_table(
            ["run", "final recall", "% queries below R=1"],
            rows,
            title=f"Partition and heal: end-of-horizon summary ({self.cut_drops} messages dropped at the cut)",
        )
        return recall + "\n\n" + bandwidth + "\n\n" + table


def run_partition_heal(
    scale: Optional[ExperimentScale] = None,
    cycles: int = 12,
    partition: Optional[PartitionSpec] = None,
    workload: Optional[PreparedWorkload] = None,
) -> PartitionHealResult:
    """Run the query workload with and without a partition window."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    storage = scale.storage_levels[len(scale.storage_levels) // 2]
    if partition is None:
        # Split once queries are in flight, heal with cycles left to recover.
        partition = PartitionSpec(
            components=2, split_cycle=2, heal_cycle=2 + max(1, cycles // 3)
        )

    recall_series: Dict[str, List[float]] = {}
    bytes_series: Dict[str, List[int]] = {}
    incomplete: Dict[str, float] = {}
    cut_drops = 0
    variants = [
        ("healthy", {}),
        ("partitioned", {"partition": partition}),
    ]
    for name, overrides in variants:
        simulation = converged_simulation(
            workload, storage=storage, config_overrides=overrides
        )
        sessions = simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles, stop_when_idle=False)
        snapshots = {qid: s.snapshots for qid, s in sessions.items()}
        recall_series[name] = recall_per_cycle(snapshots, workload.references, cycles)
        by_cycle = simulation.stats.bytes_by_cycle()
        bytes_series[name] = [by_cycle.get(cycle, 0) for cycle in range(cycles)]
        final_results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
        incomplete[name] = fraction_below_full_recall(final_results, workload.references)
        if overrides:
            cut_drops = simulation.network.transport.condition(PartitionCut).cut_drops
    return PartitionHealResult(
        cycles=list(range(cycles + 1)),
        recall_series=recall_series,
        bytes_series=bytes_series,
        partition=partition,
        cut_drops=cut_drops,
        incomplete_queries=incomplete,
    )


def run_free_rider_sweep(
    scale: Optional[ExperimentScale] = None,
    fractions: Sequence[float] = DEFAULT_FREE_RIDER_FRACTIONS,
    cycles: int = 12,
    workload: Optional[PreparedWorkload] = None,
) -> ConditionSweepResult:
    """Run the query workload once per free-rider fraction."""
    return run_condition_sweep("free_rider_fraction", fractions, scale, cycles, workload)
