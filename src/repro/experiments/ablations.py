"""Ablations of P3Q design choices (beyond the paper's own figures).

DESIGN.md calls out three protocol-level design choices worth isolating:

* the **3-step exchange** (digests, then common items, then full profiles)
  versus shipping full profiles for every advertised user;
* the **random-view layer** versus relying on personal networks alone for
  neighbour discovery;
* the **oldest-timestamp partner selection** versus picking gossip partners
  uniformly at random.

Each ablation runs the same small workload with the design choice toggled
and reports the metric that choice is supposed to improve (bandwidth for the
exchange, convergence for the other two).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..metrics.bandwidth import MAINTENANCE_KINDS
from ..metrics.convergence import average_success_ratio
from ..p3q.protocol import P3QSimulation
from ..similarity.knn import IdealNetworkIndex
from .report import format_table
from .runner import build_config
from .scenarios import ExperimentScale


@dataclass
class ExchangeAblationResult:
    """Bandwidth of the 3-step exchange vs the naive full-profile exchange.

    Digest traffic is identical in both variants (both advertise the same
    digests), so the comparison that isolates the design choice is the
    *profile payload*: the bytes spent on common-item actions plus full
    profiles.  The totals including digests are reported as well.
    """

    three_step_total_bytes: int
    full_profile_total_bytes: int
    three_step_payload_bytes: int
    full_profile_payload_bytes: int
    cycles: int

    @property
    def payload_savings_factor(self) -> float:
        if self.three_step_payload_bytes == 0:
            return float("inf")
        return self.full_profile_payload_bytes / self.three_step_payload_bytes

    @property
    def total_savings_factor(self) -> float:
        if self.three_step_total_bytes == 0:
            return float("inf")
        return self.full_profile_total_bytes / self.three_step_total_bytes

    def render(self) -> str:
        rows = [
            [
                "3-step exchange",
                round(self.three_step_payload_bytes / 1024.0, 1),
                round(self.three_step_total_bytes / 1024.0, 1),
            ],
            [
                "full-profile exchange",
                round(self.full_profile_payload_bytes / 1024.0, 1),
                round(self.full_profile_total_bytes / 1024.0, 1),
            ],
            [
                "savings factor",
                round(self.payload_savings_factor, 2),
                round(self.total_savings_factor, 2),
            ],
        ]
        return format_table(
            ["variant", f"profile payload KB ({self.cycles} cycles)", "total maintenance KB"],
            rows,
            title="Ablation: 3-step exchange vs naive profile exchange",
        )


def run_exchange_ablation(
    scale: Optional[ExperimentScale] = None,
    storage: Optional[int] = None,
    cycles: int = 10,
) -> ExchangeAblationResult:
    """Compare lazy-mode maintenance traffic with and without the 3-step exchange."""
    scale = scale or ExperimentScale.tiny()
    storage = storage if storage is not None else scale.storage_levels[1]
    dataset = scale.build_dataset()

    totals: Dict[bool, int] = {}
    payloads: Dict[bool, int] = {}
    payload_kinds = ("common_item_actions", "full_profiles")
    for three_step in (True, False):
        config = build_config(scale, storage, three_step_exchange=three_step)
        simulation = P3QSimulation(dataset.copy(), config)
        simulation.bootstrap_random_views()
        simulation.run_lazy(cycles)
        kinds = simulation.stats.bytes_by_kind()
        totals[three_step] = sum(kinds.get(kind, 0) for kind in MAINTENANCE_KINDS)
        payloads[three_step] = sum(kinds.get(kind, 0) for kind in payload_kinds)
    return ExchangeAblationResult(
        three_step_total_bytes=totals[True],
        full_profile_total_bytes=totals[False],
        three_step_payload_bytes=payloads[True],
        full_profile_payload_bytes=payloads[False],
        cycles=cycles,
    )


@dataclass
class RandomViewAblationResult:
    """Convergence with and without the random-view (peer sampling) layer."""

    with_random_view: List[float]
    without_random_view: List[float]
    cycles: List[int]

    def final_gap(self) -> float:
        return self.with_random_view[-1] - self.without_random_view[-1]

    def render(self) -> str:
        rows = [
            [cycle, self.with_random_view[i], self.without_random_view[i]]
            for i, cycle in enumerate(self.cycles)
        ]
        return format_table(
            ["cycle", "with random view", "without random view"],
            rows,
            title="Ablation: random-view layer contribution to convergence",
        )


def run_random_view_ablation(
    scale: Optional[ExperimentScale] = None,
    storage: Optional[int] = None,
    cycles: int = 20,
    sample_every: int = 5,
) -> RandomViewAblationResult:
    """Measure convergence with the peer-sampling layer enabled vs disabled.

    "Disabled" keeps the bootstrap contacts but never runs the bottom layer
    nor scores random-view members, so discovery only flows through personal
    network gossip (friends-of-friends).
    """
    scale = scale or ExperimentScale.tiny()
    storage = storage if storage is not None else scale.storage_levels[2]
    dataset = scale.build_dataset()
    ideal = IdealNetworkIndex(dataset, size=scale.network_size)
    points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})

    series: Dict[bool, List[float]] = {}
    for enabled in (True, False):
        config = build_config(scale, storage)
        simulation = P3QSimulation(dataset.copy(), config)
        simulation.bootstrap_random_views()
        if not enabled:
            # Disable both peer-sampling exchanges and random-view scoring by
            # stubbing the sans-io cores (the engine and the service runtime
            # both go through the effect generators).
            def _no_sampling(*_args, **_kwargs):
                return None
                yield  # pragma: no cover - makes this a generator function

            def _no_refresh(*_args, **_kwargs):
                return []
                yield  # pragma: no cover - makes this a generator function

            simulation.peer_sampling.run_cycle_effects = _no_sampling  # type: ignore[assignment]
            simulation.lazy.refresh_from_random_view_effects = _no_refresh  # type: ignore[assignment]
        values: List[float] = []
        values.append(average_success_ratio(ideal, simulation.discovered_networks()))
        done = 0
        for point in points[1:]:
            simulation.run_lazy(point - done)
            done = point
            values.append(average_success_ratio(ideal, simulation.discovered_networks()))
        series[enabled] = values
    return RandomViewAblationResult(
        with_random_view=series[True],
        without_random_view=series[False],
        cycles=points,
    )


@dataclass
class SelectionAblationResult:
    """Oldest-timestamp partner selection vs uniformly random selection."""

    oldest_timestamp: List[float]
    uniform_random: List[float]
    cycles: List[int]

    def render(self) -> str:
        rows = [
            [cycle, self.oldest_timestamp[i], self.uniform_random[i]]
            for i, cycle in enumerate(self.cycles)
        ]
        return format_table(
            ["cycle", "oldest timestamp", "uniform random"],
            rows,
            title="Ablation: gossip partner selection policy",
        )


def run_selection_ablation(
    scale: Optional[ExperimentScale] = None,
    storage: Optional[int] = None,
    cycles: int = 20,
    sample_every: int = 5,
) -> SelectionAblationResult:
    """Compare convergence under the two partner-selection policies."""
    scale = scale or ExperimentScale.tiny()
    storage = storage if storage is not None else scale.storage_levels[2]
    dataset = scale.build_dataset()
    ideal = IdealNetworkIndex(dataset, size=scale.network_size)
    points = sorted({0, *range(sample_every, cycles + 1, sample_every), cycles})

    series: Dict[str, List[float]] = {}
    for policy in ("oldest", "random"):
        config = build_config(scale, storage)
        simulation = P3QSimulation(dataset.copy(), config)
        simulation.bootstrap_random_views()
        if policy == "random":
            rng = random.Random(scale.seed)
            for node in simulation.nodes.values():
                network = node.personal_network
                original = network.select_oldest

                def random_select(restrict_to=None, _network=network, _rng=rng):
                    candidates = _network.member_ids()
                    if restrict_to is not None:
                        allowed = set(restrict_to)
                        candidates = [uid for uid in candidates if uid in allowed]
                    if not candidates:
                        return None
                    return _rng.choice(candidates)

                network.select_oldest = random_select  # type: ignore[assignment]
        values: List[float] = []
        values.append(average_success_ratio(ideal, simulation.discovered_networks()))
        done = 0
        for point in points[1:]:
            simulation.run_lazy(point - done)
            done = point
            values.append(average_success_ratio(ideal, simulation.discovered_networks()))
        series[policy] = values
    return SelectionAblationResult(
        oldest_timestamp=series["oldest"],
        uniform_random=series["random"],
        cycles=points,
    )
