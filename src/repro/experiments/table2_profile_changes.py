"""Table 2: influence of one day of profile changes per storage budget.

For each storage budget c, the table reports how many users have at least
one stored replica affected by the day's changes, and the average / maximum
number of replicas they must refresh.  The paper's shape: the percentage of
affected users grows quickly with c and saturates (~88%), while the average
and maximum number of replicas to refresh keep growing with c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..data.dynamics import DynamicsConfig, ProfileDynamicsGenerator
from ..metrics.freshness import profiles_to_update
from .report import format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale


@dataclass
class Table2Row:
    storage: int
    affected_fraction: float
    average_to_update: float
    max_to_update: int


@dataclass
class Table2Result:
    rows_by_storage: List[Table2Row]
    changed_users: int
    average_new_actions: float

    def render(self) -> str:
        rows = [
            [
                row.storage,
                f"{row.affected_fraction * 100:.1f}%",
                round(row.average_to_update, 1),
                row.max_to_update,
            ]
            for row in self.rows_by_storage
        ]
        return format_table(
            ["c", "% users having to update", "avg profiles to update", "max"],
            rows,
            title=(
                "Table 2: influence of profile changes"
                f" ({self.changed_users} users changed,"
                f" avg {self.average_new_actions:.1f} new actions)"
            ),
        )


def run_table2(
    scale: Optional[ExperimentScale] = None,
    storages: Optional[Sequence[int]] = None,
    dynamics: Optional[DynamicsConfig] = None,
    workload: Optional[PreparedWorkload] = None,
) -> Table2Result:
    """Compute the per-budget impact of one synthetic change day."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale, num_queries=0)
    storages = list(storages) if storages is not None else list(scale.storage_levels)
    dynamics = dynamics or DynamicsConfig(seed=scale.seed)

    generator = ProfileDynamicsGenerator(workload.dataset, dynamics)
    change_day = generator.generate_day()
    changed_users = change_day.changed_users
    total_new = sum(len(change) for change in change_day.changes)
    avg_new = total_new / len(change_day.changes) if change_day.changes else 0.0

    rows: List[Table2Row] = []
    for storage in storages:
        simulation = converged_simulation(workload, storage=storage)
        replicas = simulation.stored_replica_versions()
        to_update = profiles_to_update(replicas, set(changed_users))
        owners_with_replicas = [uid for uid, reps in replicas.items() if reps]
        affected_fraction = (
            len(to_update) / len(owners_with_replicas) if owners_with_replicas else 0.0
        )
        counts = list(to_update.values())
        rows.append(
            Table2Row(
                storage=storage,
                affected_fraction=affected_fraction,
                average_to_update=(sum(counts) / len(counts)) if counts else 0.0,
                max_to_update=max(counts) if counts else 0,
            )
        )
    return Table2Result(
        rows_by_storage=rows,
        changed_users=len(changed_users),
        average_new_actions=avg_new,
    )
