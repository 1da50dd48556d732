"""Figure 5: per-user storage requirement for each storage budget c.

The storage requirement of a user is the total length (number of tagging
actions) of the neighbour profiles she stores.  The paper plots users ranked
by ascending requirement, one curve per c, and notes that storing 10 profiles
needs only ~6.8% of the space required to store the whole personal network
while 500 profiles already need ~73.6%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..gossip.sizes import DIGEST_BYTES, profile_storage_bytes
from ..metrics.bandwidth import StorageRequirement, storage_requirements
from .report import format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale


@dataclass
class SpaceResult:
    """Per-storage-budget storage statistics."""

    #: storage budget -> per-user requirements ranked ascending (the curve).
    curves: Dict[int, List[StorageRequirement]]
    #: storage budget -> total stored profile length over all users.
    totals: Dict[int, int]
    #: total profile length when storing the *whole* personal network.
    full_network_total: int
    #: constant digest storage per user in bytes.
    digest_bytes_per_user: int

    def fraction_of_full(self, storage: int) -> float:
        """Fraction of the store-everything footprint used by this budget."""
        if self.full_network_total == 0:
            return 0.0
        return self.totals[storage] / self.full_network_total

    def rows(self) -> List[List[object]]:
        rows = []
        for storage in sorted(self.curves):
            lengths = [r.stored_profile_length for r in self.curves[storage]]
            mean_len = sum(lengths) / len(lengths) if lengths else 0.0
            max_len = max(lengths) if lengths else 0
            rows.append(
                [
                    storage,
                    round(mean_len, 1),
                    max_len,
                    round(profile_storage_bytes(int(mean_len)) / 1024.0, 1),
                    f"{self.fraction_of_full(storage) * 100:.1f}%",
                ]
            )
        return rows

    def render(self) -> str:
        return format_table(
            ["c", "mean profile length stored", "max", "mean KB/user", "% of full network"],
            self.rows(),
            title="Figure 5: space requirement per stored-profile budget",
        )


def run_space_requirements(
    scale: Optional[ExperimentScale] = None,
    storages: Optional[Sequence[int]] = None,
    workload: Optional[PreparedWorkload] = None,
) -> SpaceResult:
    """Measure storage requirements on converged personal networks."""
    scale = scale or ExperimentScale.small()
    workload = workload or prepare_workload(scale, num_queries=0)
    storages = list(storages) if storages is not None else list(scale.storage_levels)

    profile_lengths = {
        profile.user_id: len(profile) for profile in workload.dataset.profiles()
    }
    full_total = 0
    for user_id in workload.dataset.user_ids:
        full_total += sum(
            profile_lengths[uid] for uid in workload.ideal.neighbour_ids(user_id)
        )

    curves: Dict[int, List[StorageRequirement]] = {}
    totals: Dict[int, int] = {}
    for storage in storages:
        simulation = converged_simulation(workload, storage=storage)
        stored_lengths = {
            uid: network.stored_profile_length()
            for uid, network in simulation.personal_networks().items()
        }
        stored_counts = {
            uid: len(network.stored_ids())
            for uid, network in simulation.personal_networks().items()
        }
        curves[storage] = storage_requirements(stored_lengths, stored_counts)
        totals[storage] = sum(stored_lengths.values())
    return SpaceResult(
        curves=curves,
        totals=totals,
        full_network_total=full_total,
        digest_bytes_per_user=(scale.network_size + scale.random_view_size) * DIGEST_BYTES,
    )
