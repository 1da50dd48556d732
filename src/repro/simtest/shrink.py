"""Greedy spec shrinking: reduce a failing scenario to a minimal repro.

When a scenario violates an invariant, the raw spec usually mixes several
stressors (churn + loss + dynamics + a large population) of which only one
matters.  The shrinker repeatedly applies *simplifying transformations* --
drop the dynamics, drop the churn, drop each wire condition, halve the
population / workload / horizons -- keeping a candidate
only when it still fails **the same invariant** (failing differently would
trade one bug report for another).  The pass list is ordered from most to
least semantic: removing a whole stressor beats shaving numbers, so the
minimal spec reads as a statement of *what* breaks rather than a small pile
of coincidences.

Shrinking is budgeted: each candidate costs one full (but early-aborting --
runs stop at the first violation) scenario run, so the driver caps the total
number of candidate runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from .runner import ScenarioResult, run_scenario
from .spec import ScenarioSpec

#: One transformation: name + (spec -> simplified spec or None if not applicable).
Transform = Tuple[str, Callable[[ScenarioSpec], Optional[ScenarioSpec]]]


def _drop_dynamics(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return spec.but(dynamics=None) if spec.dynamics is not None else None


def _drop_churn_events(spec: ScenarioSpec, community: bool) -> Optional[ScenarioSpec]:
    """Drop the fraction events, or the community events, of the churn."""
    kept = tuple(e for e in spec.churn if (e.community is not None) != community)
    return spec.but(churn=kept) if len(kept) < len(spec.churn) else None


def _drop_churn(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return _drop_churn_events(spec, community=False)


def _drop_partition(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return spec.but(partition=None) if spec.partition is not None else None


def _drop_asymmetry(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return spec.but(asymmetry=None) if spec.asymmetry is not None else None


def _drop_free_riders(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.free_rider_fraction <= 0.0:
        return None
    return spec.but(free_rider_fraction=0.0)


def _drop_community_churn(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return _drop_churn_events(spec, community=True)


def _resume_crashes(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    """Downgrade crash-recovery churn to plain resume churn."""
    if not any(e.mode == "crash" for e in spec.churn):
        return None
    return spec.but(churn=tuple(replace(e, mode="resume") for e in spec.churn))


def _zero_loss(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return spec.but(loss_rate=0.0) if spec.loss_rate > 0 else None


def _zero_delay(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    return spec.but(delay_cycles=0) if spec.delay_cycles > 0 else None


def _clamp_schedule(spec: ScenarioSpec, lazy: int, eager: int) -> ScenarioSpec:
    """Shrink horizons, discarding or trimming events that fall outside.

    A departure beyond the new horizon is dropped; a rejoin beyond it is
    trimmed to the last cycle that still runs (or dropped entirely, making
    the departure permanent) so the clamped spec stays valid.
    """
    churn = []
    for event in spec.churn:
        horizon = lazy if event.phase == "lazy" else eager
        if event.cycle >= horizon:
            continue
        if event.rejoin_after and event.cycle + event.rejoin_after >= horizon:
            event = replace(event, rejoin_after=horizon - 1 - event.cycle)
        churn.append(event)
    dynamics = spec.dynamics
    if dynamics is not None and dynamics.at_cycle >= lazy:
        dynamics = None
    partition = spec.partition
    if partition is not None and partition.split_cycle >= lazy + eager:
        partition = None
    return spec.but(
        lazy_cycles=lazy,
        eager_cycles=eager,
        churn=tuple(churn),
        dynamics=dynamics,
        partition=partition,
    )


def _halve_queries(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.num_queries <= 1:
        return None
    return spec.but(num_queries=max(1, spec.num_queries // 2))


def _halve_eager(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.eager_cycles <= 4:
        return None
    return _clamp_schedule(spec, spec.lazy_cycles, max(4, spec.eager_cycles // 2))


def _halve_lazy(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.lazy_cycles <= 1:
        return None
    return _clamp_schedule(spec, max(1, spec.lazy_cycles // 2), spec.eager_cycles)


def _halve_users(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.num_users <= 12:
        return None
    users = max(12, spec.num_users // 2)
    network = min(spec.network_size, users - 1)
    return spec.but(
        num_users=users,
        num_items=max(60, spec.num_items // 2),
        num_tags=max(24, spec.num_tags // 2),
        network_size=network,
        storage=min(spec.storage, network),
    )


def _halve_network(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    if spec.network_size <= 4:
        return None
    network = max(4, spec.network_size // 2)
    return spec.but(network_size=network, storage=min(spec.storage, network))


#: Most-semantic-first pass list (see module docstring).
TRANSFORMS: List[Transform] = [
    ("drop dynamics", _drop_dynamics),
    ("drop churn", _drop_churn),
    ("drop community churn", _drop_community_churn),
    ("drop partition", _drop_partition),
    ("drop asymmetry", _drop_asymmetry),
    ("drop free riders", _drop_free_riders),
    ("resume crashed nodes", _resume_crashes),
    ("zero loss rate", _zero_loss),
    ("zero delay", _zero_delay),
    ("halve users", _halve_users),
    ("halve queries", _halve_queries),
    ("halve eager cycles", _halve_eager),
    ("halve lazy cycles", _halve_lazy),
    ("halve network size", _halve_network),
]


@dataclass
class ShrinkResult:
    """The minimal spec found, with the trail that led there."""

    spec: ScenarioSpec
    result: ScenarioResult
    #: (transform name, accepted) pairs in the order they were tried.
    trail: List[Tuple[str, bool]]
    runs: int

    @property
    def invariant(self) -> str:
        return self.result.invariant


def shrink(
    spec: ScenarioSpec,
    invariant: str,
    max_runs: int = 48,
    on_step: Optional[Callable[[str, bool, int], None]] = None,
) -> ShrinkResult:
    """Greedily minimise ``spec`` while it keeps violating ``invariant``.

    ``on_step(transform_name, accepted, runs_so_far)`` is invoked after each
    candidate run (the CLI uses it for progress output).  The returned spec
    is a local minimum: no single transformation of the pass list keeps the
    failure alive (or the run budget ran out).
    """
    current = spec
    current_result = run_scenario(current)
    if current_result.invariant != invariant:
        raise ValueError(
            f"spec does not fail invariant {invariant!r} "
            f"(got {current_result.invariant!r}); nothing to shrink"
        )
    runs = 1
    trail: List[Tuple[str, bool]] = []
    progress = True
    while progress and runs < max_runs:
        progress = False
        for name, transform in TRANSFORMS:
            if runs >= max_runs:
                break
            candidate = transform(current)
            if candidate is None or candidate == current:
                continue
            result = run_scenario(candidate)
            runs += 1
            accepted = result.invariant == invariant
            trail.append((name, accepted))
            if on_step is not None:
                on_step(name, accepted, runs)
            if accepted:
                current = candidate
                current_result = result
                progress = True
    return ShrinkResult(spec=current, result=current_result, trail=trail, runs=runs)
