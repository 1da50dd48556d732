"""Bandwidth and storage summaries (Figures 5, 6 and the Section 3.5 numbers)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

from ..simulator.stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_FULL_PROFILES,
    KIND_PARTIAL_RESULT,
    KIND_RANDOM_VIEW,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
    StatsCollector,
)

#: Traffic kinds that belong to personal-network maintenance (lazy mode).
MAINTENANCE_KINDS = (KIND_RANDOM_VIEW, KIND_DIGESTS, KIND_COMMON_ITEMS, KIND_FULL_PROFILES)
#: Traffic kinds that belong to query processing (eager mode).
QUERY_KINDS = (KIND_REMAINING_FORWARD, KIND_REMAINING_RETURN, KIND_PARTIAL_RESULT)


@dataclass
class QueryTraffic:
    """Per-query byte breakdown (one row of Figure 6)."""

    query_id: int
    partial_results_bytes: int
    returned_remaining_bytes: int
    forwarded_remaining_bytes: int
    partial_result_messages: int

    @property
    def total_bytes(self) -> int:
        return (
            self.partial_results_bytes
            + self.returned_remaining_bytes
            + self.forwarded_remaining_bytes
        )


def query_traffic_breakdown(stats: StatsCollector) -> List[QueryTraffic]:
    """Figure 6: per-query traffic split by kind, sorted by partial-result bytes."""
    rows: List[QueryTraffic] = []
    for query_id in stats.query_ids():
        by_kind = stats.query_bytes(query_id)
        messages = stats.query_messages(query_id)
        rows.append(
            QueryTraffic(
                query_id=query_id,
                partial_results_bytes=by_kind.get(KIND_PARTIAL_RESULT, 0),
                returned_remaining_bytes=by_kind.get(KIND_REMAINING_RETURN, 0),
                forwarded_remaining_bytes=by_kind.get(KIND_REMAINING_FORWARD, 0),
                partial_result_messages=messages.get(KIND_PARTIAL_RESULT, 0),
            )
        )
    rows.sort(key=lambda row: row.partial_results_bytes)
    return rows


def average_query_bytes(rows: Sequence[QueryTraffic]) -> float:
    """Average total bytes needed to answer a query (paper: 573 KB at λ=1)."""
    if not rows:
        return 0.0
    return sum(row.total_bytes for row in rows) / len(rows)


def average_partial_result_messages(rows: Sequence[QueryTraffic]) -> float:
    """Average number of partial-result messages per query (paper: 228 at λ=1)."""
    if not rows:
        return 0.0
    return sum(row.partial_result_messages for row in rows) / len(rows)


def maintenance_bandwidth_bps(
    stats: StatsCollector,
    seconds_per_cycle: float,
    num_nodes: int,
) -> float:
    """Per-user lazy-maintenance bandwidth in bits per second (Section 3.5)."""
    return stats.average_bandwidth_bps(
        seconds_per_cycle=seconds_per_cycle,
        kinds=MAINTENANCE_KINDS,
        num_nodes=num_nodes,
    )


def query_bandwidth_bps(
    stats: StatsCollector,
    seconds_per_cycle: float,
    num_nodes: int,
) -> float:
    """Per-user eager-mode bandwidth in bits per second (Section 3.5)."""
    return stats.average_bandwidth_bps(
        seconds_per_cycle=seconds_per_cycle,
        kinds=QUERY_KINDS,
        num_nodes=num_nodes,
    )


@dataclass
class StorageRequirement:
    """Per-user storage figures (one point of Figure 5)."""

    user_id: int
    stored_profiles: int
    stored_profile_length: int


def storage_requirements(
    stored_lengths: Mapping[int, int],
    stored_counts: Mapping[int, int],
) -> List[StorageRequirement]:
    """Figure 5 rows: users ranked by ascending storage requirement."""
    rows = [
        StorageRequirement(
            user_id=user_id,
            stored_profiles=stored_counts.get(user_id, 0),
            stored_profile_length=length,
        )
        for user_id, length in stored_lengths.items()
    ]
    rows.sort(key=lambda row: (row.stored_profile_length, row.user_id))
    return rows
