"""Figure 11: impact of massive user departures on top-k processing.

A fraction p of users leaves the system simultaneously, then the (still
online) queriers issue their queries.  Departed users cannot be gossiped
with, but their profiles survive as replicas on online users, so recall
degrades gracefully: the paper reports ~8/10 relevant items at p = 90%
(λ=1) after 10 cycles, better results at λ=4 (more replicas), and a small
fraction of queries that can never reach recall 1 because some profiles no
longer exist anywhere online (Figure 11c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..data.dynamics import massive_departure
from ..metrics.recall import fraction_below_full_recall, recall_per_cycle
from .report import format_series, format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale, poisson_storage_distribution

#: Departure fractions plotted in the paper.
PAPER_DEPARTURES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass
class ChurnResult:
    """Recall series per departure fraction, per λ, plus Figure 11c."""

    cycles: List[int]
    #: lam -> departure fraction -> recall per cycle.
    recall_series: Dict[float, Dict[float, List[float]]]
    #: lam -> departure fraction -> fraction of queries below recall 1.
    incomplete_queries: Dict[float, Dict[float, float]]

    def final_recall(self, lam: float, departure: float) -> float:
        return self.recall_series[lam][departure][-1]

    def render(self) -> str:
        parts: List[str] = []
        for lam in sorted(self.recall_series):
            named = [
                (f"p={int(p * 100)}%", values)
                for p, values in sorted(self.recall_series[lam].items())
            ]
            parts.append(
                format_series(
                    "cycle",
                    self.cycles,
                    named,
                    title=f"Figure 11: average recall under churn (lambda={lam:g})",
                )
            )
        rows = []
        for lam in sorted(self.incomplete_queries):
            for p, fraction in sorted(self.incomplete_queries[lam].items()):
                rows.append([f"lambda={lam:g}", f"{int(p * 100)}%", f"{fraction * 100:.1f}%"])
        parts.append(
            format_table(
                ["scenario", "departures", "% queries unable to reach R10=1"],
                rows,
                title="Figure 11c: queries unable to reach full recall",
            )
        )
        return "\n\n".join(parts)


def run_churn(
    scale: Optional[ExperimentScale] = None,
    lambdas: Sequence[float] = (1.0, 4.0),
    departures: Sequence[float] = PAPER_DEPARTURES,
    cycles: int = 10,
    workload: Optional[PreparedWorkload] = None,
) -> ChurnResult:
    """Run the churn experiment for each (λ, departure fraction) pair."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    queriers = [query.querier for query in workload.queries]

    recall_series: Dict[float, Dict[float, List[float]]] = {}
    incomplete: Dict[float, Dict[float, float]] = {}
    for lam in lambdas:
        storage = poisson_storage_distribution(
            workload.dataset.user_ids, lam, levels=scale.storage_levels, seed=scale.seed
        )
        recall_series[lam] = {}
        incomplete[lam] = {}
        for departure in departures:
            simulation = converged_simulation(workload, storage=storage)
            if departure > 0:
                departing = massive_departure(
                    simulation.dataset,
                    fraction=departure,
                    seed=scale.seed + int(departure * 100),
                    protect=queriers,
                )
                simulation.depart_users(departing)
            sessions = simulation.issue_queries(workload.queries)
            simulation.run_eager(cycles, stop_when_idle=False)
            snapshots = {qid: s.snapshots for qid, s in sessions.items()}
            recall_series[lam][departure] = recall_per_cycle(
                snapshots, workload.references, cycles
            )
            final_results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
            incomplete[lam][departure] = fraction_below_full_recall(
                final_results, workload.references
            )
    return ChurnResult(
        cycles=list(range(cycles + 1)),
        recall_series=recall_series,
        incomplete_queries=incomplete,
    )
