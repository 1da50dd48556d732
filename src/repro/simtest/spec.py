"""Scenario specifications and their seeded random generator.

A :class:`ScenarioSpec` is a *complete, frozen* description of one
simulation-fuzzing run: the synthetic trace, the protocol parameters, the
transport conditions, the churn schedule, the profile-dynamics mix and the
query workload.  Everything downstream (the runner, the shrinker, the CLI)
treats specs as values:

* the same spec always produces the same run, bit for bit -- all randomness
  inside a run derives from ``spec.seed``;
* specs round-trip through JSON (:meth:`ScenarioSpec.to_json` /
  :meth:`ScenarioSpec.from_json`), which is how a failing scenario is
  reported and replayed;
* :meth:`ScenarioSpec.repro_command` renders the exact shell command that
  re-runs one spec standalone.

:class:`ScenarioGenerator` samples random specs.  Sampling is indexed --
``generator.spec(i)`` derives its own RNG stream from ``(master_seed, i)``
-- so spec ``i`` is identical whether specs ``0..i-1`` were generated or
not, and a failure report only needs ``(master_seed, index)`` to name the
scenario it came from.
"""

from __future__ import annotations

import json
import math
import random
import shlex
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from ..simulator.conditions import AsymmetrySpec, PartitionSpec, validate_fraction
from ..simulator.engine import PHASE_EAGER, PHASE_LAZY
from ..simulator.rng import derive_rng

#: Stream-alignment constants of :class:`ScenarioGenerator` (not tunable:
#: ``(master_seed, index)`` must keep naming the same scenario, and published
#: failure reports cite those pairs).  The first ``_RESERVED_BAND`` of the
#: condition draw -- and the one extra main-stream draw taken inside it --
#: yields a condition-free scenario, as does a seeded ``_CALM_SHARE`` of the
#: scenarios that carry neither a partition nor an asymmetry: both pin the
#: share of direct-wire scenarios, whose stronger invariants (exact recall)
#: only apply there.
_RESERVED_BAND = 0.1
_CALM_SHARE = 0.05

#: How a churn departure comes back: ``"resume"`` rejoins with whatever the
#: dataset holds now (graceful restart); ``"crash"`` snapshots the profile at
#: departure and restores it on rejoin (restart from pre-crash state).
CHURN_MODES = ("resume", "crash")

#: JSON values a scalar spec field accepts, by its annotation.
_JSON_SCALARS = {"int": (int,), "float": (int, float), "str": (str,)}


def _checked_fields(owner: type, data: Any, where: str) -> Dict[str, Any]:
    """``data`` as keyword arguments of the dataclass ``owner``.

    A hand-edited spec, or one written by another commit, is checked before
    construction so that every defect is a ``ValueError`` naming ``where``
    and the field: not a JSON object, fields ``owner`` does not have (all of
    them -- a foreign spec may carry several retired ones), a required field
    left out, or a scalar of the wrong JSON type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    declared = {spec_field.name: spec_field for spec_field in fields(owner)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ValueError(f"unknown {where} field(s): {', '.join(unknown)}")
    for name, spec_field in declared.items():
        if name not in data:
            if spec_field.default is MISSING:
                raise ValueError(f"{where} field {name} is required")
            continue
        value = data[name]
        accepted = _JSON_SCALARS.get(spec_field.type)
        if accepted and (isinstance(value, bool) or not isinstance(value, accepted)):
            raise ValueError(f"{where} field {name} must be {spec_field.type}, got {value!r}")
    return dict(data)


@dataclass(frozen=True)
class ChurnEvent:
    """A simultaneous massive departure, optionally followed by a rejoin.

    ``fraction`` of the currently online population departs at the start of
    phase-local cycle ``cycle`` of ``phase``; with ``rejoin_after > 0`` the
    same users come back that many cycles later (in the same phase).  Both
    the departure and the rejoin must land strictly inside the phase horizon
    (:class:`ScenarioSpec` validates this): the engine only fires events of
    cycles that actually run, so a rejoin at or beyond the horizon would
    silently never happen.
    """

    phase: str
    cycle: int
    fraction: float
    rejoin_after: int = 0
    #: ``"resume"`` or ``"crash"`` (see :data:`CHURN_MODES`).
    mode: str = "resume"

    def __post_init__(self) -> None:
        if self.phase not in (PHASE_LAZY, PHASE_EAGER):
            raise ValueError(f"phase must be lazy or eager, got {self.phase!r}")
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")
        if not 0.0 < self.fraction <= 0.5:
            raise ValueError("fraction must be in (0, 0.5]")
        if self.rejoin_after < 0:
            raise ValueError("rejoin_after must be non-negative")
        if self.mode not in CHURN_MODES:
            raise ValueError(f"mode must be one of {CHURN_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class CommunityChurnEvent:
    """Correlated churn: one whole synthetic community leaves together.

    Every currently-online member of synthetic community ``community``
    departs at phase-local cycle ``cycle``; with ``rejoin_after > 0`` the
    departed members come back together that many cycles later.  ``mode``
    follows :data:`CHURN_MODES` (``"crash"`` restores pre-crash profiles on
    rejoin).  Community membership comes from the synthetic trace generator,
    so the event is fully determined by the spec.
    """

    phase: str
    cycle: int
    community: int
    rejoin_after: int = 0
    mode: str = "resume"

    def __post_init__(self) -> None:
        if self.phase not in (PHASE_LAZY, PHASE_EAGER):
            raise ValueError(f"phase must be lazy or eager, got {self.phase!r}")
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")
        if self.community < 0:
            raise ValueError("community must be non-negative")
        if self.rejoin_after < 0:
            raise ValueError("rejoin_after must be non-negative")
        if self.mode not in CHURN_MODES:
            raise ValueError(f"mode must be one of {CHURN_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class DynamicsSpec:
    """One day of synthetic profile changes applied during the lazy phase."""

    #: Lazy cycle at the start of which the change day is applied.
    at_cycle: int
    #: Fraction of users changing their profiles that day.
    change_fraction: float
    #: Mean number of new tagging actions per changing user.
    mean_new_actions: int = 4

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise ValueError("at_cycle must be non-negative")
        if not 0.0 < self.change_fraction <= 1.0:
            raise ValueError("change_fraction must be in (0, 1]")
        if self.mean_new_actions < 1:
            raise ValueError("mean_new_actions must be >= 1")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined fuzzing scenario."""

    #: Where the spec came from (purely informational, carried into reports).
    master_seed: int = 0
    index: int = 0

    # -- synthetic trace ------------------------------------------------------
    num_users: int = 36
    num_items: int = 260
    num_tags: int = 80
    num_communities: int = 4
    mean_actions_per_user: int = 22
    dataset_seed: int = 11

    # -- protocol parameters --------------------------------------------------
    network_size: int = 12
    storage: int = 4
    random_view_size: int = 5
    k: int = 8
    alpha: float = 0.5
    exchange_size: int = 10
    digest_bits: int = 1_024
    digest_hashes: int = 4

    # -- wire conditions (all at their defaults: the direct wire) -------------
    loss_rate: float = 0.0
    delay_cycles: int = 0
    #: Network partition condition.
    partition: Optional[PartitionSpec] = None
    #: Asymmetric-link / NAT condition.
    asymmetry: Optional[AsymmetrySpec] = None
    #: Seeded fraction of nodes that never answer requests or forwards.
    free_rider_fraction: float = 0.0

    # -- schedule -------------------------------------------------------------
    lazy_cycles: int = 6
    eager_cycles: int = 10
    num_queries: int = 6
    churn: Tuple[ChurnEvent, ...] = ()
    community_churn: Tuple[CommunityChurnEvent, ...] = ()
    dynamics: Optional[DynamicsSpec] = None

    #: Root seed of every RNG stream inside the run.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 4:
            raise ValueError("num_users must be at least 4")
        if self.network_size <= 0 or self.network_size >= self.num_users:
            raise ValueError("network_size must be in [1, num_users)")
        if self.num_queries < 1:
            raise ValueError("num_queries must be positive")
        if self.lazy_cycles < 1 or self.eager_cycles < 1:
            raise ValueError("cycle counts must be positive")
        for event in self.churn:
            limit = self.lazy_cycles if event.phase == PHASE_LAZY else self.eager_cycles
            if event.cycle >= limit:
                raise ValueError(
                    f"churn event at {event.phase} cycle {event.cycle} is outside "
                    f"the {limit}-cycle horizon"
                )
            if event.rejoin_after and event.cycle + event.rejoin_after >= limit:
                raise ValueError(
                    f"churn rejoin at {event.phase} cycle "
                    f"{event.cycle + event.rejoin_after} is outside the "
                    f"{limit}-cycle horizon (it would silently never fire)"
                )
        for event in self.community_churn:
            limit = self.lazy_cycles if event.phase == PHASE_LAZY else self.eager_cycles
            if event.cycle >= limit:
                raise ValueError(
                    f"community churn event at {event.phase} cycle {event.cycle} "
                    f"is outside the {limit}-cycle horizon"
                )
            if event.rejoin_after and event.cycle + event.rejoin_after >= limit:
                raise ValueError(
                    f"community churn rejoin at {event.phase} cycle "
                    f"{event.cycle + event.rejoin_after} is outside the "
                    f"{limit}-cycle horizon (it would silently never fire)"
                )
            if event.community >= self.num_communities:
                raise ValueError(
                    f"community {event.community} does not exist "
                    f"(the trace has {self.num_communities} communities)"
                )
        if self.dynamics is not None and self.dynamics.at_cycle >= self.lazy_cycles:
            raise ValueError("dynamics.at_cycle is outside the lazy horizon")
        if (
            self.partition is not None
            and self.partition.split_cycle >= self.lazy_cycles + self.eager_cycles
        ):
            raise ValueError(
                f"partition split at global cycle {self.partition.split_cycle} "
                f"is outside the {self.lazy_cycles + self.eager_cycles}-cycle run"
            )
        validate_fraction("free_rider_fraction", self.free_rider_fraction)

    # -- derived views --------------------------------------------------------

    @property
    def direct_equivalent(self) -> bool:
        """True when the configured conditions degrade to the direct wire."""
        return (
            self.loss_rate == 0.0
            and self.delay_cycles == 0
            and self.partition is None
            and (self.asymmetry is None or self.asymmetry.is_null)
            and self.free_rider_fraction == 0.0
        )

    @property
    def quiescent(self) -> bool:
        """No churn and no profile dynamics: the steady-state setting under
        which the strongest invariants (full recall, exact convergence)
        apply."""
        return not self.churn and not self.community_churn and self.dynamics is None

    def describe(self) -> str:
        """A one-line summary for progress output."""
        parts = [
            f"users={self.num_users}",
            f"s={self.network_size}",
            f"c={self.storage}",
            f"alpha={self.alpha}",
        ]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate}")
        if self.delay_cycles:
            parts.append(f"delay={self.delay_cycles}")
        parts.append(f"lazy={self.lazy_cycles}")
        parts.append(f"eager={self.eager_cycles}")
        parts.append(f"queries={self.num_queries}")
        if self.partition is not None:
            parts.append(
                f"partition={self.partition.components}"
                f"@{self.partition.split_cycle}..{self.partition.heal_cycle}"
            )
        if self.asymmetry is not None and not self.asymmetry.is_null:
            parts.append("asymmetry")
        if self.free_rider_fraction:
            parts.append(f"freeriders={self.free_rider_fraction}")
        if self.churn:
            parts.append(f"churn={len(self.churn)}")
        if self.community_churn:
            parts.append(f"community-churn={len(self.community_churn)}")
        if any(
            event.mode == "crash" for event in self.churn + self.community_churn
        ):
            parts.append("crash")
        if self.dynamics is not None:
            parts.append("dynamics")
        return " ".join(parts)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["churn"] = [asdict(event) for event in self.churn]
        data["community_churn"] = [asdict(event) for event in self.community_churn]
        data["partition"] = None if self.partition is None else asdict(self.partition)
        data["asymmetry"] = None if self.asymmetry is None else asdict(self.asymmetry)
        data["dynamics"] = None if self.dynamics is None else asdict(self.dynamics)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        """The spec ``data`` describes; malformed input is a ``ValueError``."""
        payload = _checked_fields(cls, data, "scenario")
        for name, event_type in (
            ("churn", ChurnEvent), ("community_churn", CommunityChurnEvent)
        ):
            events = payload.get(name, [])
            if not isinstance(events, list):
                raise ValueError(f"scenario field {name} must be a list, got {events!r}")
            payload[name] = tuple(
                event_type(**_checked_fields(event_type, event, f"{name} event"))
                for event in events
            )
        for name, part_type in (
            ("partition", PartitionSpec),
            ("asymmetry", AsymmetrySpec),
            ("dynamics", DynamicsSpec),
        ):
            part = payload.get(name)
            if part is not None:
                payload[name] = part_type(**_checked_fields(part_type, part, name))
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def repro_command(self) -> str:
        """The shell command replaying exactly this scenario."""
        return (
            "PYTHONPATH=src python -m repro simtest "
            f"--spec-json {shlex.quote(self.to_json())}"
        )

    def but(self, **changes: Any) -> "ScenarioSpec":
        """A copy with some fields replaced (shrinking helper)."""
        return replace(self, **changes)


@dataclass
class GeneratorRanges:
    """Sampling bounds of :class:`ScenarioGenerator`.

    The defaults keep one scenario well under a second so a 50-seed batch
    finishes in tens of seconds; widen them for longer offline campaigns.
    """

    users: Tuple[int, int] = (24, 56)
    network_size: Tuple[int, int] = (8, 20)
    storage: Tuple[int, int] = (2, 8)
    random_view: Tuple[int, int] = (4, 8)
    k: Tuple[int, int] = (5, 10)
    exchange_size: Tuple[int, int] = (6, 14)
    lazy_cycles: Tuple[int, int] = (3, 8)
    eager_cycles: Tuple[int, int] = (8, 14)
    queries: Tuple[int, int] = (3, 10)
    alphas: Tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)
    loss_rates: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4)
    delay_choices: Tuple[int, ...] = (1, 2, 3)
    #: Probability of a loss-only / delay(+loss) scenario (the remainder
    #: runs the direct wire).
    p_lossy: float = 0.3
    p_latency: float = 0.25
    p_churn: float = 0.35
    p_rejoin: float = 0.5
    p_dynamics: float = 0.3

    #: Occasional large-N scenarios: with probability ``p_large_users`` the
    #: user count is redrawn log-uniformly from ``large_users`` (so most
    #: large draws stay in the hundreds, with a tail up to 5000) and the
    #: cycle horizons are tightened to keep one scenario within seconds.
    #: These runs push the incremental runtime through churn/dynamics at
    #: scales where stale-cache bugs hide; the draw comes from a *separate*
    #: seeded stream so tuning it never perturbs the small-scenario stream.
    large_users: Tuple[int, int] = (200, 5_000)
    p_large_users: float = 0.06

    #: Adversarial conditions, each drawn from its own independent seeded
    #: stream (tuning one never perturbs another dimension or the main
    #: scenario stream).  A partition or asymmetry draw composes with any
    #: sampled loss/delay.
    partition_components: Tuple[int, ...] = (2, 3)
    p_partition: float = 0.12
    degraded_fractions: Tuple[float, ...] = (0.2, 0.5)
    link_loss_rates: Tuple[float, ...] = (0.3, 0.6, 1.0)
    link_delay_choices: Tuple[int, ...] = (0, 1)
    nat_fractions: Tuple[float, ...] = (0.0, 0.1, 0.2)
    p_asymmetry: float = 0.12
    free_rider_fractions: Tuple[float, ...] = (0.1, 0.25, 0.5)
    p_free_riders: float = 0.12
    #: Per churn event: probability the departure is a crash (profile
    #: snapshot restored on rejoin) instead of a graceful resume.
    p_crash: float = 0.4
    p_community_churn: float = 0.1

    @classmethod
    def adversarial(cls) -> "GeneratorRanges":
        """The nightly ``--adversarial`` profile: fault rates turned up.

        Same dimensions, heavier weights -- most scenarios carry at least
        one adversarial condition, so a 50-seed batch exercises every
        condition (and their compositions) many times over.
        """
        return cls(
            p_churn=0.5,
            p_partition=0.35,
            p_asymmetry=0.3,
            p_free_riders=0.3,
            p_crash=0.6,
            p_community_churn=0.25,
        )

    def capped(self, max_users: int) -> "GeneratorRanges":
        """A copy whose scenarios never exceed ``max_users`` users.

        The PR-gate fuzz smoke runs capped (fast feedback); the nightly
        batch runs uncapped and owns the large-N coverage.
        """
        if max_users < 8:
            raise ValueError("max_users must be at least 8")
        lo, hi = self.users
        large_lo, large_hi = self.large_users
        return replace(
            self,
            users=(min(lo, max_users), min(hi, max_users)),
            large_users=(min(large_lo, max_users), min(large_hi, max_users)),
            p_large_users=0.0 if max_users < large_lo else self.p_large_users,
        )


class ScenarioGenerator:
    """Deterministic, indexed sampling of :class:`ScenarioSpec` values."""

    def __init__(self, master_seed: int = 0, ranges: Optional[GeneratorRanges] = None) -> None:
        self.master_seed = master_seed
        self.ranges = ranges or GeneratorRanges()

    def spec(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario of this generator's stream."""
        if index < 0:
            raise ValueError("index must be non-negative")
        rng = random.Random(f"{self.master_seed}/simtest/scenario/{index}")
        r = self.ranges

        num_users = rng.randint(*r.users)
        network_size = min(rng.randint(*r.network_size), num_users - 1)
        lazy_cycles = rng.randint(*r.lazy_cycles)
        eager_cycles = rng.randint(*r.eager_cycles)

        # Large-N override from an independent stream: enabling or tuning it
        # leaves every small scenario of the stream bit-identical.
        if r.p_large_users > 0.0:
            large_rng = random.Random(f"{self.master_seed}/simtest/large/{index}")
            if large_rng.random() < r.p_large_users:
                lo, hi = r.large_users
                num_users = max(
                    num_users,
                    round(math.exp(large_rng.uniform(math.log(lo), math.log(hi)))),
                )
                lazy_cycles = min(lazy_cycles, large_rng.randint(2, 4))
                eager_cycles = min(eager_cycles, large_rng.randint(4, 8))

        loss_rate, delay_cycles = self._sample_conditions(rng)
        churn = self._sample_churn(rng, lazy_cycles, eager_cycles)
        dynamics = self._sample_dynamics(rng, lazy_cycles)

        # Remaining main-stream draws, in the historical order (hoisted out
        # of the constructor call so the independent adversarial streams
        # below can use ``num_communities`` without perturbing this stream).
        num_items = num_users * rng.randint(5, 9)
        num_communities = rng.randint(3, 6)
        mean_actions_per_user = rng.randint(14, 30)
        dataset_seed = rng.randrange(2**16)
        storage = min(rng.randint(*r.storage), network_size)
        random_view_size = rng.randint(*r.random_view)
        k = rng.randint(*r.k)
        alpha = rng.choice(r.alphas)
        exchange_size = rng.randint(*r.exchange_size)
        digest_bits = rng.choice((512, 1_024, 2_048))
        digest_hashes = rng.randint(3, 6)
        num_queries = rng.randint(*r.queries)
        seed = rng.randrange(2**16)

        # Adversarial dimensions, one independent stream each.
        partition = self._sample_partition(index, lazy_cycles + eager_cycles)
        asymmetry = self._sample_asymmetry(index)
        free_rider_fraction = self._sample_free_riders(index)
        churn = self._sample_crash_modes(index, churn)
        community_churn = self._sample_community_churn(
            index, lazy_cycles, eager_cycles, num_communities
        )
        if partition is None and asymmetry is None and self._sample_calm(index):
            loss_rate, delay_cycles = 0.0, 0

        return ScenarioSpec(
            master_seed=self.master_seed,
            index=index,
            num_users=num_users,
            num_items=num_items,
            num_tags=num_users * 2,
            num_communities=num_communities,
            mean_actions_per_user=mean_actions_per_user,
            dataset_seed=dataset_seed,
            network_size=network_size,
            storage=storage,
            random_view_size=random_view_size,
            k=k,
            alpha=alpha,
            exchange_size=exchange_size,
            digest_bits=digest_bits,
            digest_hashes=digest_hashes,
            loss_rate=loss_rate,
            delay_cycles=delay_cycles,
            partition=partition,
            asymmetry=asymmetry,
            free_rider_fraction=free_rider_fraction,
            lazy_cycles=lazy_cycles,
            eager_cycles=eager_cycles,
            num_queries=num_queries,
            churn=churn,
            community_churn=community_churn,
            dynamics=dynamics,
            seed=seed,
        )

    def specs(self, count: int, start: int = 0):
        """Iterate ``count`` consecutive specs starting at ``start``."""
        for index in range(start, start + count):
            yield self.spec(index)

    # -- sampling pieces ------------------------------------------------------

    def _sample_conditions(self, rng: random.Random) -> Tuple[float, int]:
        """The ``(loss_rate, delay_cycles)`` of one scenario."""
        r = self.ranges
        draw = rng.random()
        if draw < _RESERVED_BAND:
            rng.choice((0, 1))
            return (0.0, 0)
        if draw < _RESERVED_BAND + r.p_lossy:
            return (rng.choice(r.loss_rates), 0)
        if draw < _RESERVED_BAND + r.p_lossy + r.p_latency:
            loss = rng.choice((0.0,) + r.loss_rates)
            return (loss, rng.choice(r.delay_choices))
        return (0.0, 0)

    def _sample_churn(
        self, rng: random.Random, lazy_cycles: int, eager_cycles: int
    ) -> Tuple[ChurnEvent, ...]:
        if rng.random() >= self.ranges.p_churn:
            return ()
        events = []
        for _ in range(rng.randint(1, 2)):
            phase = rng.choice((PHASE_LAZY, PHASE_EAGER))
            horizon = lazy_cycles if phase == PHASE_LAZY else eager_cycles
            cycle = rng.randint(1, max(1, horizon - 1))
            # The rejoin must land on a cycle that actually runs (< horizon);
            # when no such cycle exists the departure is simply permanent.
            rejoin_after = 0
            latest_rejoin = horizon - 1 - cycle
            if latest_rejoin >= 1 and rng.random() < self.ranges.p_rejoin:
                rejoin_after = rng.randint(1, latest_rejoin)
            events.append(
                ChurnEvent(
                    phase=phase,
                    cycle=cycle,
                    fraction=rng.choice((0.1, 0.2, 0.3, 0.5)),
                    rejoin_after=rejoin_after,
                )
            )
        # At most one event per (phase, cycle) keeps schedules unambiguous.
        seen = set()
        unique = []
        for event in events:
            key = (event.phase, event.cycle)
            if key not in seen:
                seen.add(key)
                unique.append(event)
        return tuple(unique)

    def _sample_partition(self, index: int, total_cycles: int) -> Optional[PartitionSpec]:
        r = self.ranges
        if r.p_partition <= 0.0 or total_cycles < 2:
            return None
        rng = derive_rng(self.master_seed, "simtest", "partition", index)
        if rng.random() >= r.p_partition:
            return None
        split = rng.randint(0, total_cycles - 2)
        # The heal cycle may land on (or beyond) the final cycle, in which
        # case the cut simply persists to the end of the run.
        heal = rng.randint(split + 1, total_cycles)
        return PartitionSpec(
            components=rng.choice(r.partition_components),
            split_cycle=split,
            heal_cycle=heal,
        )

    def _sample_asymmetry(self, index: int) -> Optional[AsymmetrySpec]:
        r = self.ranges
        if r.p_asymmetry <= 0.0:
            return None
        rng = derive_rng(self.master_seed, "simtest", "asymmetry", index)
        if rng.random() >= r.p_asymmetry:
            return None
        return AsymmetrySpec(
            degraded_fraction=rng.choice(r.degraded_fractions),
            link_loss_rate=rng.choice(r.link_loss_rates),
            link_delay_cycles=rng.choice(r.link_delay_choices),
            nat_fraction=rng.choice(r.nat_fractions),
        )

    def _sample_free_riders(self, index: int) -> float:
        r = self.ranges
        if r.p_free_riders <= 0.0:
            return 0.0
        rng = derive_rng(self.master_seed, "simtest", "freeriders", index)
        if rng.random() >= r.p_free_riders:
            return 0.0
        return rng.choice(r.free_rider_fractions)

    def _sample_crash_modes(
        self, index: int, churn: Tuple[ChurnEvent, ...]
    ) -> Tuple[ChurnEvent, ...]:
        r = self.ranges
        if not churn or r.p_crash <= 0.0:
            return churn
        rng = derive_rng(self.master_seed, "simtest", "crash", index)
        return tuple(
            replace(event, mode="crash") if rng.random() < r.p_crash else event
            for event in churn
        )

    def _sample_community_churn(
        self, index: int, lazy_cycles: int, eager_cycles: int, num_communities: int
    ) -> Tuple[CommunityChurnEvent, ...]:
        r = self.ranges
        if r.p_community_churn <= 0.0:
            return ()
        rng = derive_rng(self.master_seed, "simtest", "community", index)
        if rng.random() >= r.p_community_churn:
            return ()
        phase = rng.choice((PHASE_LAZY, PHASE_EAGER))
        horizon = lazy_cycles if phase == PHASE_LAZY else eager_cycles
        cycle = rng.randint(1, max(1, horizon - 1))
        if cycle >= horizon:
            return ()
        rejoin_after = 0
        latest_rejoin = horizon - 1 - cycle
        if latest_rejoin >= 1 and rng.random() < r.p_rejoin:
            rejoin_after = rng.randint(1, latest_rejoin)
        mode = "crash" if rng.random() < r.p_crash else "resume"
        return (
            CommunityChurnEvent(
                phase=phase,
                cycle=cycle,
                community=rng.randrange(num_communities),
                rejoin_after=rejoin_after,
                mode=mode,
            ),
        )

    def _sample_calm(self, index: int) -> bool:
        rng = derive_rng(self.master_seed, "simtest", "zero-adversarial", index)
        return rng.random() < _CALM_SHARE

    def _sample_dynamics(self, rng: random.Random, lazy_cycles: int) -> Optional[DynamicsSpec]:
        if rng.random() >= self.ranges.p_dynamics:
            return None
        return DynamicsSpec(
            at_cycle=rng.randint(1, max(1, lazy_cycles - 1)),
            change_fraction=rng.choice((0.1, 0.2, 0.4)),
            mean_new_actions=rng.randint(2, 8),
        )
