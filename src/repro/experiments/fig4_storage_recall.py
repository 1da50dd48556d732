"""Figure 4: average recall per eager cycle for different storage budgets c.

With α fixed at its optimum (0.5), the storage budget decides how much of
the answer is available locally at cycle 0 and how many gossip cycles the
rest takes.  The paper's shape: every budget reaches recall 1 by cycle 10,
the first cycle brings the largest improvement, and larger budgets start
higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.recall import recall_per_cycle
from .report import format_series
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale


@dataclass
class StorageRecallResult:
    """Average recall per cycle for each storage budget."""

    cycles: List[int]
    series: Dict[int, List[float]]
    alpha: float

    def recall_at(self, storage: int, cycle: int) -> float:
        return self.series[storage][cycle]

    def final_recall(self, storage: int) -> float:
        return self.series[storage][-1]

    def render(self) -> str:
        named = [(f"c={storage}", values) for storage, values in sorted(self.series.items())]
        return format_series(
            "cycle",
            self.cycles,
            named,
            title=f"Figure 4: average recall vs cycles per storage (alpha={self.alpha})",
        )


def run_storage_recall(
    scale: Optional[ExperimentScale] = None,
    storages: Optional[Sequence[int]] = None,
    alpha: float = 0.5,
    cycles: int = 10,
    workload: Optional[PreparedWorkload] = None,
) -> StorageRecallResult:
    """Run the storage sweep on converged personal networks."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    storages = (
        list(storages) if storages is not None else list(scale.storage_levels[:6])
    )
    series: Dict[int, List[float]] = {}
    for storage in storages:
        simulation = converged_simulation(workload, storage=storage, alpha=alpha)
        sessions = simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles)
        snapshots = {qid: session.snapshots for qid, session in sessions.items()}
        series[storage] = recall_per_cycle(snapshots, workload.references, cycles)
    return StorageRecallResult(
        cycles=list(range(cycles + 1)), series=series, alpha=alpha
    )
