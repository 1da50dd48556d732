"""Figure 6 and the Section 3.5 bandwidth summary.

When a query is gossiped, three kinds of information travel: the forwarded
remaining lists, the returned remaining lists (both piggybacked on gossip
messages) and the partial result lists sent straight to the querier (one
message each, dominating the volume).  Figure 6 plots the per-query byte
breakdown in the λ=1 heterogeneous scenario; Section 3.5 summarizes the
average per-query volume (573 KB at λ=1 vs 360 KB at λ=4), the number of
partial-result messages (228 vs 70) and the per-user bandwidth in Kbps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..metrics.bandwidth import (
    QueryTraffic,
    average_partial_result_messages,
    average_query_bytes,
    maintenance_bandwidth_bps,
    query_bandwidth_bps,
    query_traffic_breakdown,
)
from .report import format_table
from .runner import PreparedWorkload, converged_simulation, prepare_workload
from .scenarios import ExperimentScale, poisson_storage_distribution

#: Wall-clock length of one lazy / eager cycle (paper: 60 s / 5 s), which
#: turns per-cycle bytes into Kbps.
LAZY_CYCLE_SECONDS = 60.0
EAGER_CYCLE_SECONDS = 5.0


@dataclass
class BandwidthResult:
    """Per-λ traffic breakdown for query processing."""

    rows_by_lambda: Dict[float, List[QueryTraffic]]
    average_bytes: Dict[float, float]
    average_messages: Dict[float, float]
    query_bandwidth_bps: Dict[float, float]
    maintenance_bandwidth_bps: Dict[float, float]

    def render(self) -> str:
        rows = []
        for lam in sorted(self.rows_by_lambda):
            rows.append(
                [
                    f"lambda={lam:g}",
                    round(self.average_bytes[lam] / 1024.0, 1),
                    round(self.average_messages[lam], 1),
                    round(self.query_bandwidth_bps[lam] / 1000.0, 1),
                    round(self.maintenance_bandwidth_bps[lam] / 1000.0, 1),
                ]
            )
        return format_table(
            [
                "scenario",
                "avg KB per query",
                "avg partial-result msgs",
                "query Kbps/user",
                "maintenance Kbps/user",
            ],
            rows,
            title="Figure 6 / Section 3.5: bandwidth for query processing",
        )


def run_query_bandwidth(
    scale: Optional[ExperimentScale] = None,
    lambdas: Optional[List[float]] = None,
    cycles: int = 12,
    lazy_cycles: int = 3,
    workload: Optional[PreparedWorkload] = None,
) -> BandwidthResult:
    """Measure per-query traffic in the heterogeneous storage scenarios."""
    scale = scale or ExperimentScale.small()
    lambdas = lambdas if lambdas is not None else [1.0, 4.0]
    workload = workload or prepare_workload(scale)

    rows_by_lambda: Dict[float, List[QueryTraffic]] = {}
    average_bytes: Dict[float, float] = {}
    average_messages: Dict[float, float] = {}
    query_bps: Dict[float, float] = {}
    maintenance_bps: Dict[float, float] = {}
    for lam in lambdas:
        storage = poisson_storage_distribution(
            workload.dataset.user_ids,
            lam,
            levels=scale.storage_levels,
            seed=scale.seed,
        )
        simulation = converged_simulation(workload, storage=storage)
        # A few lazy cycles first so maintenance traffic is measurable too.
        simulation.run_lazy(lazy_cycles)
        simulation.issue_queries(workload.queries)
        simulation.run_eager(cycles)
        rows = query_traffic_breakdown(simulation.stats)
        rows_by_lambda[lam] = rows
        average_bytes[lam] = average_query_bytes(rows)
        average_messages[lam] = average_partial_result_messages(rows)
        query_bps[lam] = query_bandwidth_bps(
            simulation.stats,
            seconds_per_cycle=EAGER_CYCLE_SECONDS,
            num_nodes=max(1, len(workload.queries)),
        )
        maintenance_bps[lam] = maintenance_bandwidth_bps(
            simulation.stats,
            seconds_per_cycle=LAZY_CYCLE_SECONDS,
            num_nodes=len(workload.dataset),
        )
    return BandwidthResult(
        rows_by_lambda=rows_by_lambda,
        average_bytes=average_bytes,
        average_messages=average_messages,
        query_bandwidth_bps=query_bps,
        maintenance_bandwidth_bps=maintenance_bps,
    )
