"""Loss sweep: query processing under per-message packet loss.

This experiment goes beyond the paper: the published evaluation assumes a
lossless network (PeerSim's direct exchanges), while the transport layer
lets the same protocol run under packet loss.  For each drop probability the
converged system answers the shared query workload over a
:class:`~repro.simulator.transport.Transport` carrying a
:class:`~repro.simulator.conditions.Loss` condition; the sweep reports

* average recall per eager cycle (how loss slows convergence to the exact
  answer -- dropped forwards are retried, dropped returns lose their
  α share for good, dropped partial results are pure recall loss);
* the fraction of queries unable to reach full recall within the horizon;
* the average bytes spent per query (bytes are accounted at *send* time, so
  lost messages still cost their sender bandwidth; lost α shares also
  *remove* future forwarding work, so heavy loss can spend fewer bytes to
  produce a worse answer).

Runs are fully deterministic: the drop stream is seeded independently of the
node RNG streams, so a 0.0 drop rate reproduces the direct-transport figures
exactly and any other rate is reproducible bit for bit.

The sweep loop and its result (:func:`run_condition_sweep`,
:class:`ConditionSweepResult`) are shared with the free-rider sweep of
:mod:`repro.experiments.fig_adversarial`, which overrides
``free_rider_fraction`` instead of ``loss_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.bandwidth import average_query_bytes, query_traffic_breakdown
from ..metrics.recall import fraction_below_full_recall, recall_per_cycle
from .report import format_series, format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale

#: Per-message drop probabilities swept by default.
DEFAULT_LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)


#: How a report names each swept ``P3QConfig`` field: the series label
#: prefix, the figure name, what one value is, and the summary table's first
#: column header.
_SWEEP_LABELS = {
    "loss_rate": ("loss", "Loss sweep", "drop probability", "drop rate"),
    "free_rider_fraction": (
        "riders", "Free-rider sweep", "rider fraction", "rider fraction",
    ),
}


@dataclass
class ConditionSweepResult:
    """Recall and bandwidth series per value of one swept condition."""

    #: The ``P3QConfig`` field swept (a key of ``_SWEEP_LABELS``).
    swept: str
    cycles: List[int]
    #: value -> average recall per eager cycle.
    recall_series: Dict[float, List[float]]
    #: value -> fraction of queries below recall 1 at the horizon.
    incomplete_queries: Dict[float, float]
    #: value -> average bytes spent per query (sender-side accounting).
    avg_query_bytes: Dict[float, float]

    def final_recall(self, value: float) -> float:
        return self.recall_series[value][-1]

    def render(self) -> str:
        label, figure, unit, column = _SWEEP_LABELS[self.swept]
        named = [
            (f"{label}={round(value * 100)}%", values)
            for value, values in sorted(self.recall_series.items())
        ]
        series = format_series(
            "cycle",
            self.cycles,
            named,
            title=f"{figure}: average recall vs eager cycles per {unit}",
        )
        rows = [
            [
                f"{round(value * 100)}%",
                f"{self.final_recall(value):.3f}",
                f"{self.incomplete_queries[value] * 100:.1f}%",
                f"{self.avg_query_bytes[value] / 1024:.1f}",
            ]
            for value in sorted(self.recall_series)
        ]
        table = format_table(
            [column, "final recall", "% queries below R=1", "avg KB per query"],
            rows,
            title=f"{figure}: end-of-horizon summary",
        )
        return series + "\n\n" + table


def run_condition_sweep(
    swept: str,
    values: Sequence[float],
    scale: Optional[ExperimentScale] = None,
    cycles: int = 12,
    workload: Optional[PreparedWorkload] = None,
) -> ConditionSweepResult:
    """Run the query workload once per value of the ``P3QConfig`` field ``swept``."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    storage = scale.storage_levels[len(scale.storage_levels) // 2]

    recall_series: Dict[float, List[float]] = {}
    incomplete: Dict[float, float] = {}
    avg_bytes: Dict[float, float] = {}
    for value in values:
        simulation = converged_simulation(
            workload,
            storage=storage,
            config_overrides={swept: float(value)},
        )
        sessions = simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles, stop_when_idle=False)
        snapshots = {qid: s.snapshots for qid, s in sessions.items()}
        recall_series[value] = recall_per_cycle(snapshots, workload.references, cycles)
        final_results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
        incomplete[value] = fraction_below_full_recall(final_results, workload.references)
        avg_bytes[value] = average_query_bytes(query_traffic_breakdown(simulation.stats))
    return ConditionSweepResult(
        swept=swept,
        cycles=list(range(cycles + 1)),
        recall_series=recall_series,
        incomplete_queries=incomplete,
        avg_query_bytes=avg_bytes,
    )


def run_loss_sweep(
    scale: Optional[ExperimentScale] = None,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    cycles: int = 12,
    workload: Optional[PreparedWorkload] = None,
) -> ConditionSweepResult:
    """Run the query workload once per drop probability."""
    return run_condition_sweep("loss_rate", loss_rates, scale, cycles, workload)
