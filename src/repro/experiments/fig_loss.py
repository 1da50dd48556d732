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


@dataclass
class LossSweepResult:
    """Recall and bandwidth series per drop probability."""

    cycles: List[int]
    #: loss rate -> average recall per eager cycle.
    recall_series: Dict[float, List[float]]
    #: loss rate -> fraction of queries below recall 1 at the horizon.
    incomplete_queries: Dict[float, float]
    #: loss rate -> average bytes spent per query (sender-side accounting).
    avg_query_bytes: Dict[float, float]

    def final_recall(self, rate: float) -> float:
        return self.recall_series[rate][-1]

    def render(self) -> str:
        named = [
            (f"loss={round(rate * 100)}%", values)
            for rate, values in sorted(self.recall_series.items())
        ]
        series = format_series(
            "cycle",
            self.cycles,
            named,
            title="Loss sweep: average recall vs eager cycles per drop probability",
        )
        rows = []
        for rate in sorted(self.recall_series):
            rows.append(
                [
                    f"{round(rate * 100)}%",
                    f"{self.final_recall(rate):.3f}",
                    f"{self.incomplete_queries[rate] * 100:.1f}%",
                    f"{self.avg_query_bytes[rate] / 1024:.1f}",
                ]
            )
        table = format_table(
            ["drop rate", "final recall", "% queries below R=1", "avg KB per query"],
            rows,
            title="Loss sweep: end-of-horizon summary",
        )
        return series + "\n\n" + table


def run_loss_sweep(
    scale: Optional[ExperimentScale] = None,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    cycles: int = 12,
    workload: Optional[PreparedWorkload] = None,
) -> LossSweepResult:
    """Run the query workload once per drop probability."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    storage = scale.storage_levels[len(scale.storage_levels) // 2]

    recall_series: Dict[float, List[float]] = {}
    incomplete: Dict[float, float] = {}
    avg_bytes: Dict[float, float] = {}
    for rate in loss_rates:
        simulation = converged_simulation(
            workload,
            storage=storage,
            config_overrides={"loss_rate": float(rate)},
        )
        sessions = simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles, stop_when_idle=False)
        snapshots = {qid: s.snapshots for qid, s in sessions.items()}
        recall_series[rate] = recall_per_cycle(snapshots, workload.references, cycles)
        final_results = {
            qid: (s.snapshots[-1].items if s.snapshots else [])
            for qid, s in sessions.items()
        }
        incomplete[rate] = fraction_below_full_recall(final_results, workload.references)
        avg_bytes[rate] = average_query_bytes(query_traffic_breakdown(simulation.stats))
    return LossSweepResult(
        cycles=list(range(cycles + 1)),
        recall_series=recall_series,
        incomplete_queries=incomplete,
        avg_query_bytes=avg_bytes,
    )
