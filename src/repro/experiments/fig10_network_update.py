"""Figure 10: discovery of the *new* neighbours caused by profile changes.

Profile changes do not only stale replicas -- they also change which users
*should* be in a personal network.  Starting from converged networks, one day
of changes is applied, the new ideal networks are computed offline, and the
experiment tracks per lazy cycle the fraction of affected users that have
discovered **all** of their new ideal neighbours (a deliberately strict
metric).  Paper shape: ~50% of affected users are complete after 30 cycles,
~80% after 100, with λ=1 and λ=4 close to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..data.dynamics import DynamicsConfig, ProfileDynamicsGenerator
from ..metrics.convergence import (
    fraction_with_complete_new_network,
    users_with_changed_networks,
)
from ..similarity.knn import IdealNetworkIndex
from .report import format_series
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale, poisson_storage_distribution


@dataclass
class NetworkUpdateResult:
    """Fraction of affected users with a completed new network, per cycle."""

    cycles: List[int]
    series: Dict[float, List[float]]
    affected_users: Dict[float, int]

    def final_fraction(self, lam: float) -> float:
        return self.series[lam][-1] if self.series[lam] else 1.0

    def render(self) -> str:
        named = [
            (f"lambda={lam:g} (affected={self.affected_users[lam]})", values)
            for lam, values in sorted(self.series.items())
        ]
        return format_series(
            "cycle",
            self.cycles,
            named,
            title="Figure 10: personal network evolution in lazy mode",
        )


def run_network_update(
    scale: Optional[ExperimentScale] = None,
    lambdas: Sequence[float] = (1.0, 4.0),
    cycles: int = 30,
    sample_every: int = 5,
    dynamics: Optional[DynamicsConfig] = None,
    workload: Optional[PreparedWorkload] = None,
) -> NetworkUpdateResult:
    """Track how fast the lazy mode integrates the new ideal neighbours."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale, num_queries=0)
    # The paper's change day (15% of users, ~8 new actions) barely moves the
    # ideal networks of a few-hundred-user population, so the default here is
    # a heavier day: enough users change enough actions for new ideal
    # neighbours to actually appear at small scale.
    dynamics = dynamics or DynamicsConfig(
        change_fraction=0.5,
        mean_new_actions=25,
        retag_probability=0.1,
        seed=scale.seed,
    )
    points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})

    series: Dict[float, List[float]] = {}
    affected: Dict[float, int] = {}
    for lam in lambdas:
        storage = poisson_storage_distribution(
            workload.dataset.user_ids, lam, levels=scale.storage_levels, seed=scale.seed
        )
        simulation = converged_simulation(workload, storage=storage)
        generator = ProfileDynamicsGenerator(simulation.dataset, dynamics)
        change_day = generator.generate_day()
        simulation.apply_profile_changes(change_day)
        new_ideal = IdealNetworkIndex(simulation.dataset, size=scale.network_size)
        required = users_with_changed_networks(workload.ideal, new_ideal)
        affected[lam] = len(required)

        values: List[float] = []

        def measure() -> None:
            values.append(
                fraction_with_complete_new_network(
                    required, simulation.discovered_networks()
                )
            )

        measure()
        done = 0
        for point in points[1:]:
            simulation.run_lazy(point - done)
            done = point
            measure()
        series[lam] = values
    return NetworkUpdateResult(cycles=points, series=series, affected_users=affected)
