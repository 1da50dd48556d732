"""Figure 2: personal-network convergence speed in lazy mode.

Starting from cold personal networks (only random-view contacts), the lazy
gossip gradually discovers the ideal neighbours.  The experiment reports the
average success ratio -- fraction of the ideal personal network already
discovered, averaged over users -- per lazy cycle, for several uniform
storage budgets ``c``.  The paper's shape: larger ``c`` converges faster,
and even ``c = 10`` reaches ~68% of the ideal network by cycle 200.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..metrics.convergence import average_success_ratio
from ..p3q.protocol import P3QSimulation
from ..similarity.knn import IdealNetworkIndex
from .report import format_series
from .runner import build_config
from .scenarios import ExperimentScale


@dataclass
class ConvergenceResult:
    """Success-ratio series per storage budget."""

    cycles: List[int]
    series: Dict[int, List[float]]

    def final_ratio(self, storage: int) -> float:
        return self.series[storage][-1] if self.series[storage] else 0.0

    def render(self) -> str:
        named = [(f"c={c}", values) for c, values in sorted(self.series.items())]
        return format_series(
            "cycle", self.cycles, named, title="Figure 2: personal network convergence"
        )


def run_convergence(
    scale: Optional[ExperimentScale] = None,
    storages: Optional[Sequence[int]] = None,
    cycles: int = 30,
    sample_every: int = 5,
) -> ConvergenceResult:
    """Run the lazy-mode convergence experiment.

    ``sample_every`` controls how often (in cycles) the success ratio is
    measured; measuring is O(users x s) so sampling keeps the experiment
    cheap at larger scales.
    """
    scale = scale or ExperimentScale.small()
    storages = list(storages) if storages is not None else list(scale.storage_levels[:4])
    dataset = scale.build_dataset()
    ideal = IdealNetworkIndex(dataset, size=scale.network_size)

    sample_points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})
    series: Dict[int, List[float]] = {}
    for storage in storages:
        config = build_config(scale, storage)
        simulation = P3QSimulation(dataset.copy(), config)
        simulation.bootstrap_random_views()
        ratios: List[float] = []

        def measure() -> None:
            ratios.append(
                average_success_ratio(ideal, simulation.discovered_networks())
            )

        measure()  # cycle 0: only random contacts known
        next_points = [p for p in sample_points if p > 0]
        done = 0
        for point in next_points:
            simulation.run_lazy(point - done)
            done = point
            measure()
        series[storage] = ratios
    return ConvergenceResult(cycles=sample_points, series=series)
