"""Figure 7: average update rate (AUR) under lazy gossip after profile changes.

All changing users update their profiles simultaneously; the lazy gossip then
propagates the new versions to the replicas stored in personal networks.  The
AUR is measured per lazy cycle, (a) for uniform storage budgets and (b) for
the heterogeneous Poisson scenarios.  The paper's shape: small budgets are
refreshed quickly (>95% within 30 cycles for c = 10/20), large budgets lag
(≈40% after 100 cycles for c = 500/1000), and λ=1 beats λ=4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..data.dynamics import DynamicsConfig, ProfileDynamicsGenerator
from ..metrics.freshness import average_update_rate
from .report import format_series
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale, poisson_storage_distribution

ScenarioSpec = Union[int, float]  # uniform budget (int) or Poisson λ (float label)


@dataclass
class AurLazyResult:
    """AUR per lazy cycle, one series per scenario."""

    cycles: List[int]
    uniform_series: Dict[int, List[float]]
    poisson_series: Dict[float, List[float]]

    def final_aur(self, storage: int) -> float:
        return self.uniform_series[storage][-1]

    def render(self) -> str:
        named = [(f"c={c}", v) for c, v in sorted(self.uniform_series.items())]
        named += [(f"lambda={lam:g}", v) for lam, v in sorted(self.poisson_series.items())]
        return format_series(
            "cycle", self.cycles, named, title="Figure 7: AUR evolution in lazy mode"
        )


def _measure_aur_over_cycles(
    simulation,
    changed_users,
    cycles: int,
    sample_every: int,
) -> List[float]:
    points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})
    values: List[float] = []

    def measure() -> None:
        values.append(
            average_update_rate(
                simulation.stored_replica_versions(),
                simulation.current_profile_versions(),
                set(changed_users),
            )
        )

    measure()
    done = 0
    for point in points[1:]:
        simulation.run_lazy(point - done)
        done = point
        measure()
    return values


def run_aur_lazy(
    scale: Optional[ExperimentScale] = None,
    storages: Optional[Sequence[int]] = None,
    lambdas: Sequence[float] = (1.0, 4.0),
    cycles: int = 20,
    sample_every: int = 5,
    dynamics: Optional[DynamicsConfig] = None,
    workload: Optional[PreparedWorkload] = None,
) -> AurLazyResult:
    """Run the lazy-mode freshness experiment (Figures 7a and 7b)."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale, num_queries=0)
    storages = list(storages) if storages is not None else list(scale.storage_levels[:4])
    dynamics = dynamics or DynamicsConfig(seed=scale.seed)
    points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})

    uniform_series: Dict[int, List[float]] = {}
    for storage in storages:
        simulation = converged_simulation(workload, storage=storage)
        generator = ProfileDynamicsGenerator(simulation.dataset, dynamics)
        change_day = generator.generate_day()
        simulation.apply_profile_changes(change_day)
        uniform_series[storage] = _measure_aur_over_cycles(
            simulation, change_day.changed_users, cycles, sample_every
        )

    poisson_series: Dict[float, List[float]] = {}
    for lam in lambdas:
        storage_map = poisson_storage_distribution(
            workload.dataset.user_ids, lam, levels=scale.storage_levels, seed=scale.seed
        )
        simulation = converged_simulation(workload, storage=storage_map)
        generator = ProfileDynamicsGenerator(simulation.dataset, dynamics)
        change_day = generator.generate_day()
        simulation.apply_profile_changes(change_day)
        poisson_series[lam] = _measure_aur_over_cycles(
            simulation, change_day.changed_users, cycles, sample_every
        )

    return AurLazyResult(
        cycles=points,
        uniform_series=uniform_series,
        poisson_series=poisson_series,
    )
