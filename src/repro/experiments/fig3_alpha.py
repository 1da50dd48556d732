"""Figure 3: average recall per eager cycle for different split parameters α.

With small storage (the paper uses c = 10 profiles), the querier must collect
most contributions through eager gossip.  The split parameter α decides how
much of the remaining list the destination hands back to the initiator:
α = 0 forwards the query along a single path, α = 1 polls the querier's
neighbours one by one, and α = 0.5 balances both and converges fastest
(matching Theorem 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.recall import recall_per_cycle
from .report import format_series
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale

#: The α values plotted in Figure 3.
PAPER_ALPHAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


@dataclass
class AlphaRecallResult:
    """Average recall per cycle for each α."""

    cycles: List[int]
    series: Dict[float, List[float]]
    storage: int

    def cycles_to_reach(self, alpha: float, threshold: float) -> Optional[int]:
        """First cycle at which the recall of ``alpha`` reaches ``threshold``."""
        for cycle, value in zip(self.cycles, self.series[alpha]):
            if value >= threshold:
                return cycle
        return None

    def render(self) -> str:
        named = [(f"a={alpha:g}", values) for alpha, values in sorted(self.series.items())]
        return format_series(
            "cycle",
            self.cycles,
            named,
            title=f"Figure 3: average recall vs cycles per alpha (c={self.storage})",
        )


def run_alpha_recall(
    scale: Optional[ExperimentScale] = None,
    alphas: Sequence[float] = PAPER_ALPHAS,
    storage: Optional[int] = None,
    cycles: int = 20,
    workload: Optional[PreparedWorkload] = None,
) -> AlphaRecallResult:
    """Run the α sweep on converged personal networks."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale)
    storage = storage if storage is not None else scale.storage_levels[0]

    series: Dict[float, List[float]] = {}
    for alpha in alphas:
        simulation = converged_simulation(workload, storage=storage, alpha=alpha)
        sessions = simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles)
        snapshots = {qid: session.snapshots for qid, session in sessions.items()}
        series[alpha] = recall_per_cycle(snapshots, workload.references, cycles)
    return AlphaRecallResult(
        cycles=list(range(cycles + 1)), series=series, storage=storage
    )
