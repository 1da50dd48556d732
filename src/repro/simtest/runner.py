"""Execute one :class:`~repro.simtest.spec.ScenarioSpec` under invariants.

The runner is the bridge between a frozen spec and the live system: it
builds the dataset and the :class:`~repro.p3q.protocol.P3QSimulation`,
schedules the spec's churn and dynamics through the engine's event queue,
and hooks the invariant checkers into

* the transport (a single observer fans every
  :class:`~repro.simulator.transport.WireEvent` out to the checkers),
* the engine (a post-cycle hook fires the cycle-boundary checks),
* the eager loop (the per-cycle snapshot callback feeds the query
  checkers).

A run never half-fails: the first :class:`InvariantViolation` (or crash)
aborts it and is reported in the :class:`ScenarioResult` together with the
spec that produced it.  Runs also produce a *fingerprint* -- the same exact
traffic/view/result digest the transport golden test uses -- so two runs
are behaviourally identical iff their fingerprints are equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..data.dynamics import DynamicsConfig, ProfileDynamicsGenerator
from ..data.models import ChangeDay, Dataset
from ..data.queries import QueryWorkloadGenerator
from ..data.synthetic import SyntheticConfig, SyntheticTraceGenerator
from ..p3q.config import P3QConfig
from ..p3q.protocol import P3QSimulation
from ..p3q.query import QuerySession
from ..p3q.scoring import partial_scores
from ..simulator.engine import PHASE_LAZY, ScheduledEvent, SimulationEngine
from ..topk.exact import exact_top_k
from .invariants import InvariantChecker, InvariantViolation, default_checkers
from .spec import ScenarioSpec

#: Violation name used when a scenario crashes rather than failing a checker.
CRASH = "crash"


@dataclass
class RunContext:
    """What checkers may inspect during a run."""

    spec: ScenarioSpec
    simulation: P3QSimulation
    #: query_id -> reference top-k items (exact answer over the profiles the
    #: querier expected at issue time); filled once queries are issued.
    references: Dict[int, List[int]] = field(default_factory=dict)
    #: query_id -> live session at the querier; filled once queries are issued.
    sessions: Dict[int, QuerySession] = field(default_factory=dict)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    spec: ScenarioSpec
    violation: Optional[InvariantViolation]
    fingerprint: Optional[Dict]
    #: Names of the invariants that were checked.
    checked: List[str]

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def invariant(self) -> Optional[str]:
        return None if self.violation is None else self.violation.invariant


def build_simulation(spec: ScenarioSpec) -> P3QSimulation:
    """The live system a spec describes (dataset + configured P3Q stack)."""
    generator = SyntheticTraceGenerator(
        SyntheticConfig(
            num_users=spec.num_users,
            num_items=spec.num_items,
            num_tags=spec.num_tags,
            num_communities=spec.num_communities,
            mean_actions_per_user=spec.mean_actions_per_user,
            seed=spec.dataset_seed,
        )
    )
    dataset = generator.generate()
    config = P3QConfig(
        network_size=spec.network_size,
        storage=spec.storage,
        random_view_size=spec.random_view_size,
        k=spec.k,
        alpha=spec.alpha,
        exchange_size=spec.exchange_size,
        digest_bits=spec.digest_bits,
        digest_hashes=spec.digest_hashes,
        seed=spec.seed,
        loss_rate=spec.loss_rate,
        delay_cycles=spec.delay_cycles,
        partition=spec.partition,
        asymmetry=spec.asymmetry,
        free_rider_fraction=spec.free_rider_fraction,
    )
    simulation = P3QSimulation(dataset, config)
    # Ground-truth community membership, inverted for the correlated-churn
    # scheduler (the generator caches the dataset; this costs no re-roll).
    members: Dict[int, List[int]] = {}
    if spec.community_churn:
        for uid, communities in generator.community_memberships().items():
            for community in communities:
                members.setdefault(community, []).append(uid)
    simulation.community_members = {
        community: sorted(ids) for community, ids in members.items()
    }
    return simulation


def _schedule_churn(spec: ScenarioSpec, simulation: P3QSimulation) -> None:
    """Install the spec's churn events into the engine's event queue."""
    for idx, event in enumerate(spec.churn):
        rng = random.Random(f"{spec.seed}/simtest/churn/{idx}")

        def depart(engine: SimulationEngine, event=event, rng=rng) -> None:
            online = simulation.network.online_ids()
            count = min(max(1, int(event.fraction * len(online))), len(online) - 1)
            if count <= 0:
                return
            departing = rng.sample(online, k=count)
            crash = event.mode == "crash"
            if crash:
                simulation.crash_users(departing)
            else:
                simulation.depart_users(departing)
            if event.rejoin_after > 0:
                rejoin = (
                    simulation.recover_users if crash else simulation.rejoin_users
                )
                engine.schedule(
                    ScheduledEvent(
                        cycle=event.cycle + event.rejoin_after,
                        phase=event.phase,
                        action=lambda _engine, ids=tuple(departing): rejoin(ids),
                        description=f"rejoin {count} users",
                    )
                )

        simulation.engine.schedule(
            ScheduledEvent(
                cycle=event.cycle,
                phase=event.phase,
                action=depart,
                description=f"depart {event.fraction:.0%} of online users",
            )
        )


def _schedule_community_churn(spec: ScenarioSpec, simulation: P3QSimulation) -> None:
    """Install correlated (whole-community) churn into the event queue."""
    for event in spec.community_churn:

        def depart(engine: SimulationEngine, event=event) -> None:
            members = simulation.community_members.get(event.community, [])
            online = set(simulation.network.online_ids())
            # Never empty the network: keep at least one node online.
            departing = [uid for uid in members if uid in online]
            if len(departing) >= len(online):
                departing = departing[:-1]
            if not departing:
                return
            crash = event.mode == "crash"
            if crash:
                simulation.crash_users(departing)
            else:
                simulation.depart_users(departing)
            if event.rejoin_after > 0:
                rejoin = (
                    simulation.recover_users if crash else simulation.rejoin_users
                )
                engine.schedule(
                    ScheduledEvent(
                        cycle=event.cycle + event.rejoin_after,
                        phase=event.phase,
                        action=lambda _engine, ids=tuple(departing): rejoin(ids),
                        description=f"rejoin community {event.community}",
                    )
                )

        simulation.engine.schedule(
            ScheduledEvent(
                cycle=event.cycle,
                phase=event.phase,
                action=depart,
                description=f"depart community {event.community}",
            )
        )


def _schedule_dynamics(spec: ScenarioSpec, simulation: P3QSimulation) -> None:
    """Install the spec's profile-change day into the lazy schedule."""
    if spec.dynamics is None:
        return
    generator = ProfileDynamicsGenerator(
        simulation.dataset,
        DynamicsConfig(
            change_fraction=spec.dynamics.change_fraction,
            mean_new_actions=spec.dynamics.mean_new_actions,
            num_days=1,
            seed=spec.seed + 101,
        ),
    )
    change_day: ChangeDay = generator.generate()[0]
    simulation.engine.schedule(
        ScheduledEvent(
            cycle=spec.dynamics.at_cycle,
            phase=PHASE_LAZY,
            action=lambda _engine: simulation.apply_profile_changes(change_day),
            description="apply one day of profile changes",
        )
    )


def _issue_workload(spec: ScenarioSpec, ctx: RunContext) -> None:
    """Sample queriers, issue their queries and pin the reference answers.

    The reference for each query is the exact top-k over the *live* profiles
    of everything the querier expected at issue time (her personal network
    plus herself).  Under a direct wire without dynamics the collaborative
    computation must converge to exactly this answer; scores are small
    integer counts, so the float summation is order-independent and the
    reference is unambiguous.
    """
    simulation = ctx.simulation
    dataset: Dataset = simulation.dataset
    rng = random.Random(f"{spec.seed}/simtest/queries")
    queriers = rng.sample(dataset.user_ids, k=min(spec.num_queries, len(dataset.user_ids)))
    generator = QueryWorkloadGenerator(dataset, seed=spec.seed)
    queries = generator.generate(sorted(queriers))
    ctx.sessions = simulation.issue_queries(queries)
    for query_id, session in ctx.sessions.items():
        profiles = [
            simulation.nodes[uid].profile for uid in sorted(session.expected_profiles)
        ]
        scores = partial_scores(profiles, session.query)
        ctx.references[query_id] = [item for item, _ in exact_top_k([scores], session.k)]


def fingerprint(simulation: P3QSimulation) -> Dict:
    """An exact digest of traffic, views, replicas and query results.

    The same shape as the transport golden fixture: two runs are behaviourally
    identical iff their fingerprints are equal.
    """
    stats = simulation.stats
    results = {}
    for query_id, session in sorted(simulation.sessions().items()):
        last = session.snapshots[-1]
        results[query_id] = {
            "items": list(last.items),
            "profiles_used": last.profiles_used,
            "remaining": sorted(session.remaining),
        }
    return {
        "bytes_by_kind": stats.bytes_by_kind(),
        "messages": stats.total_messages(),
        "bytes_by_cycle": dict(sorted(stats.bytes_by_cycle().items())),
        "networks": {
            uid: members
            for uid, members in sorted(simulation.discovered_networks().items())
        },
        "stored": {
            uid: node.personal_network.stored_ids()
            for uid, node in sorted(simulation.nodes.items())
        },
        "replica_versions": {
            uid: dict(sorted(versions.items()))
            for uid, versions in sorted(simulation.stored_replica_versions().items())
        },
        "random_views": {
            uid: node.random_view.member_ids()
            for uid, node in sorted(simulation.nodes.items())
        },
        "results": results,
    }


def _execute(spec: ScenarioSpec, checkers: Sequence[InvariantChecker]) -> Dict:
    """One full scenario run with the given checkers attached."""
    simulation = build_simulation(spec)
    ctx = RunContext(spec=spec, simulation=simulation)
    for checker in checkers:
        checker.bind(ctx)

    if checkers:
        def observe(event) -> None:
            for checker in checkers:
                checker.on_wire_event(event)

        simulation.network.transport.add_observer(observe)

        # The engine stamps the phase of every cycle it runs; the hook reads
        # it back instead of tracking phase state of its own.
        def post_cycle(engine: SimulationEngine, cycle: int) -> None:
            for checker in checkers:
                checker.on_cycle_end(engine.current_phase, cycle)

        simulation.engine.add_post_cycle_hook(post_cycle)

    _schedule_churn(spec, simulation)
    _schedule_community_churn(spec, simulation)
    _schedule_dynamics(spec, simulation)

    simulation.bootstrap_random_views()
    simulation.run_lazy(spec.lazy_cycles)

    _issue_workload(spec, ctx)

    def eager_callback(cycle: int, snapshots) -> None:
        for checker in checkers:
            checker.on_eager_cycle(cycle, snapshots)

    simulation.run_eager(
        spec.eager_cycles,
        callback=eager_callback if checkers else None,
        stop_when_idle=False,
    )

    for checker in checkers:
        checker.on_finish()
    return fingerprint(simulation)


def run_scenario(
    spec: ScenarioSpec,
    checkers: Optional[Sequence[InvariantChecker]] = None,
) -> ScenarioResult:
    """Run one scenario; never raises, all failures land in the result.

    ``checkers`` defaults to every registered invariant that applies to the
    spec; pass an explicit (possibly empty) sequence to restrict them.
    """
    active = list(default_checkers(spec)) if checkers is None else list(checkers)
    names = [checker.name for checker in active]
    try:
        fp = _execute(spec, active)
    except InvariantViolation as violation:
        return ScenarioResult(spec=spec, violation=violation, fingerprint=None, checked=names)
    except Exception as error:  # noqa: BLE001 - a crash IS a fuzzing result
        violation = InvariantViolation(CRASH, f"{type(error).__name__}: {error}")
        return ScenarioResult(spec=spec, violation=violation, fingerprint=None, checked=names)

    return ScenarioResult(spec=spec, violation=None, fingerprint=fp, checked=names)
