"""Wiring P3Q nodes into a full simulation.

:class:`P3QSimulation` is the orchestration layer the experiments use: it
builds one :class:`~repro.p3q.node.P3QNode` per user of a dataset, hooks them
into the cycle-driven simulator, and exposes the operations the paper's
evaluation needs -- bootstrap, lazy convergence, warm start from the ideal
networks, query issuing, eager processing, profile changes and churn.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from ..data.models import ChangeDay, Dataset
from ..data.dynamics import apply_change_day
from ..data.queries import Query
from ..gossip.digest import DigestCache, ProfileDigest
from ..gossip.peer_sampling import PeerSamplingProtocol
from ..gossip.profile_exchange import LazyExchangeProtocol
from ..gossip.views import PersonalNetwork
from ..similarity.knn import IdealNetworkIndex
from ..simulator.engine import PHASE_EAGER, PHASE_LAZY, SimulationEngine, paused_gc
from ..simulator.network import Network
from ..simulator.rng import derive_rng
from ..simulator.stats import KIND_REMAINING_FORWARD, StatsCollector
from ..simulator.transport import Transport
from .config import P3QConfig
from .eager import EagerGossipProtocol
from .node import P3QNode
from .query import CycleSnapshot, QuerySession


class P3QSimulation:
    """A complete P3Q deployment over a dataset, driven cycle by cycle."""

    def __init__(self, dataset: Dataset, config: P3QConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.stats = StatsCollector()
        self.network = Network(
            stats=self.stats,
            transport=Transport(
                loss_rate=config.loss_rate,
                delay_cycles=config.delay_cycles,
                seed=config.seed,
                partition=config.partition,
                asymmetry=config.asymmetry,
            ),
        )
        self.engine = SimulationEngine(self.network, seed=config.seed)
        # The incremental runtime's shared cache: one digest / probe-row set
        # per profile version for the whole deployment.  The engine flushes
        # the per-cycle dirty set into it at each cycle boundary.
        self.digest_cache = DigestCache(
            num_bits=config.digest_bits, num_hashes=config.digest_hashes
        )
        self.network.add_profile_dirty_listener(self.digest_cache.evict_profiles)
        # One shared instance of each protocol: they are stateless apart from
        # bounded caches, and sharing keeps memory linear in the user count.
        self.peer_sampling = PeerSamplingProtocol()
        self.lazy = LazyExchangeProtocol(
            exchange_size=config.exchange_size,
            three_step=config.three_step_exchange,
        )
        self.eager = EagerGossipProtocol(alpha=config.alpha, lazy=self.lazy)
        self.nodes: Dict[int, P3QNode] = {}
        for profile in dataset.profiles():
            node = P3QNode(
                profile=profile,
                config=config,
                peer_sampling=self.peer_sampling,
                lazy=self.lazy,
                eager=self.eager,
                digest_cache=self.digest_cache,
            )
            self.nodes[node.node_id] = node
            self.network.add_node(node)
        # Free riders: a seeded sample of the population that advertises
        # digests like everyone else but never serves requests.  The sample
        # comes from its own stream (independent of bootstrap/node streams),
        # so a fraction of 0 -- or one that rounds to zero nodes -- leaves
        # the run bit-identical to an unconditioned one.
        self.free_rider_ids: frozenset = frozenset()
        if config.free_rider_fraction > 0.0:
            ids = sorted(self.nodes)
            count = int(round(config.free_rider_fraction * len(ids)))
            if count:
                rider_rng = derive_rng(config.seed, "free-riders")
                self.free_rider_ids = frozenset(rider_rng.sample(ids, count))
                for uid in self.free_rider_ids:
                    self.nodes[uid].free_rider = True
        self._bootstrap_rng = self.engine.rng_factory.for_purpose("bootstrap")
        self._eager_cycles_run = 0

    # ------------------------------------------------------------------ setup

    def node(self, user_id: int) -> P3QNode:
        return self.nodes[user_id]

    def bootstrap_random_views(self, contacts_per_node: Optional[int] = None) -> None:
        """Seed every node's random view with random contacts.

        The paper assumes users first discover "the contact information of
        any user currently in the system" through peer sampling; seeding each
        view with ``r`` random descriptors reproduces that starting point.
        """
        count = contacts_per_node or self.config.random_view_size
        user_ids = list(self.nodes)
        total = len(user_ids)
        if total <= 1:
            return
        nodes = self.nodes
        sample = self._bootstrap_rng.sample
        own = min(count, total - 1)
        for position, node in enumerate(nodes.values()):
            # ``sample(others, k)`` consumes randomness as a function of
            # ``(len(others), k)`` only, so sampling *positions* from an index
            # range and mapping them over the self-gap draws the exact same
            # contacts as materializing the N-1 element "everyone but me"
            # list per node -- without the O(N^2) list building that used to
            # dominate large-N bootstrap.
            positions = sample(range(total - 1), k=own)
            node.bootstrap_random_view([
                nodes[user_ids[j if j < position else j + 1]].own_descriptor()
                for j in positions
            ])

    def warm_start(self, ideal: Optional[IdealNetworkIndex] = None) -> IdealNetworkIndex:
        """Replace every personal network with its ideal one (converged state).

        The paper's query-processing experiments (Figures 3, 4, 6, 8, 11) are
        run on personal networks that already converged through the lazy
        mode.  Warm-starting from the offline ideal index reproduces that
        starting state without paying the convergence time in every
        experiment; the convergence itself is evaluated separately (Fig. 2).
        What a network held before is dropped: its entries become the ideal
        ones in rank order, with timestamp 0 and replicas for the top ``c``.
        """
        if ideal is None:
            ideal = IdealNetworkIndex(self.dataset, size=self.config.network_size)
        nodes = self.nodes
        digests: Dict[int, ProfileDigest] = {}  # fetched on first appearance
        with paused_gc():  # the entries are acyclic: a collection only re-walks them
            for uid, node in nodes.items():
                ranked = []
                for other, score in zip(ideal.neighbour_ids(uid), ideal.neighbour_scores(uid)):
                    digest = digests.get(other)
                    if digest is None:
                        digest = digests[other] = nodes[other].own_digest()
                    ranked.append((digest.user_id, score, digest))  # no fresh int per entry
                network = node.personal_network
                network.install(ranked)
                for entry in network.ranked_entries()[: network.storage]:
                    entry.profile = nodes[entry.user_id].profile.copy()
        return ideal

    # ------------------------------------------------------------- lazy phase

    def run_lazy(
        self,
        cycles: int,
        callback: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Run ``cycles`` lazy cycles over every online node."""
        self.engine.run_cycles(cycles, phase=PHASE_LAZY, callback=callback)

    def discovered_networks(self) -> Dict[int, List[int]]:
        """user_id -> personal-network member ids currently discovered."""
        return {uid: node.personal_network.member_ids() for uid, node in self.nodes.items()}

    # ------------------------------------------------------------ eager phase

    @property
    def eager_cycles_run(self) -> int:
        """Eager cycles executed so far (the closed-loop serving clock)."""
        return self._eager_cycles_run

    def issue_queries(self, queries: Iterable[Query]) -> Dict[int, QuerySession]:
        """Issue queries at their online queriers; returns their sessions.

        Each session holds its issue-cycle snapshot
        (:meth:`P3QNode.issue_query <repro.p3q.node.P3QNode.issue_query>`);
        a query whose querier is offline is left out.  Queries issued after
        some eager cycles already ran (closed-loop serving's steady-state
        injection) are stamped with the current eager cycle so
        ``latency_cycles`` measures from injection, not from 0.
        """
        sessions: Dict[int, QuerySession] = {}
        cycle = self._eager_cycles_run
        for query in queries:
            if self.network.is_online(query.querier):
                sessions[query.query_id] = self.nodes[query.querier].issue_query(
                    query, cycle=cycle
                )
        return sessions

    def eager_participants(self) -> List[int]:
        """Online nodes that still have eager work to do this cycle.

        Filters the network's eager-work registry (every node registers
        itself the moment it acquires a session or a forwarded list)
        instead of scanning the whole population: identical participant
        lists, O(active) instead of O(N) per cycle.  A candidate that
        proves idle *while online* is retired from the registry -- it can
        only become active again through a message, which re-registers it;
        offline candidates are kept (they may still hold work when churn
        brings them back).
        """
        network = self.network
        nodes = self.nodes
        participants: List[int] = []
        for uid in network.eager_work_candidates():
            if not network.is_online(uid):
                continue
            if nodes[uid].has_active_queries():
                participants.append(uid)
            else:
                network.retire_eager_work(uid)
        return participants

    def run_eager(
        self,
        cycles: int,
        callback: Optional[Callable[[int, Dict[int, CycleSnapshot]], None]] = None,
        stop_when_idle: bool = True,
    ) -> int:
        """Run up to ``cycles`` eager cycles.

        After each cycle every querier merges the partial results received
        during that cycle into a snapshot of each of its open sessions
        (:meth:`P3QNode.close_open_sessions
        <repro.p3q.node.P3QNode.close_open_sessions>`, the service runtime's
        rule too); a closed session takes no further snapshot.  ``callback``
        receives the 1-based cycle number and one snapshot per session that
        was open at the start of the cycle, keyed by query id; a caller that
        wants every query reads ``session.snapshots[-1]``.  Returns the
        number of cycles actually run (processing stops early once no node
        has any remaining list, unless ``stop_when_idle`` is False).
        """
        run = 0
        transport = self.network.transport
        with paused_gc():
            for _ in range(cycles):
                participants = self.eager_participants()
                if stop_when_idle and not participants and transport.pending_count() == 0:
                    break
                self.engine.run_cycle(phase=PHASE_EAGER, participants=participants)
                self._eager_cycles_run += 1
                run += 1
                snapshots: Dict[int, CycleSnapshot] = {}
                # Only nodes that ever opened a session can hold one; the
                # registry iterates in ascending id order.
                for uid in self.network.session_holders():
                    snapshots.update(
                        self.nodes[uid].close_open_sessions(self._eager_cycles_run)
                    )
                if callback is not None:
                    callback(self._eager_cycles_run, snapshots)
        return run

    def sessions(self) -> Dict[int, QuerySession]:
        """Every query session in the system, keyed by query id."""
        out: Dict[int, QuerySession] = {}
        for node in self.nodes.values():
            out.update(node.sessions)
        return out

    def users_reached(self, query_id: int) -> Set[int]:
        """Users reached by the eager gossip of one query (Figure 8 metric).

        Derived from the traffic records: every receiver of a forwarded
        remaining list, plus the querier herself.
        """
        reached: Set[int] = set(
            self.stats.query_receivers(query_id, KIND_REMAINING_FORWARD)
        )
        for session in self.sessions().values():
            if session.query.query_id == query_id:
                reached.add(session.query.querier)
        return reached

    # ---------------------------------------------------------------- dynamics

    def apply_profile_changes(self, change_day: ChangeDay) -> Dict[int, int]:
        """Apply a day of profile changes to the live profiles.

        The changed users enter the network's per-cycle dirty set; the engine
        flushes it to the registered listeners (the shared digest cache) at
        the next cycle boundary so superseded cached state is reclaimed.
        """
        versions = apply_change_day(self.dataset, change_day)
        self.network.mark_profiles_dirty(versions)
        return versions

    def depart_users(self, user_ids: Iterable[int]) -> None:
        """Simultaneous departure of the given users (churn)."""
        self.network.depart(user_ids)

    def rejoin_users(self, user_ids: Iterable[int]) -> None:
        self.network.rejoin(user_ids)

    def crash_users(self, user_ids: Iterable[int]) -> None:
        """Depart the given users, persisting their pre-crash profiles.

        The graceful-churn twin of :meth:`depart_users`: on recovery
        (:meth:`recover_users`) each node rolls its profile back to this
        snapshot instead of rejoining with whatever the dataset holds now,
        modelling a restart from state persisted before the crash.
        """
        ids = list(user_ids)
        for uid in ids:
            self.nodes[uid].snapshot_for_crash()
        self.network.depart(ids)

    def recover_users(self, user_ids: Iterable[int]) -> None:
        """Bring crashed users back with their pre-crash profile snapshots.

        A node whose profile moved while it was down (tag dynamics) is
        restored to the stale snapshot and marked dirty, so the shared
        digest cache evicts the superseded state at the next cycle boundary
        -- the rejoined node never serves digest versions past the merge
        barrier.  Nodes whose profiles did not move rejoin untouched,
        keeping crash churn bit-identical to graceful churn in quiescent
        runs.
        """
        ids = list(user_ids)
        self.network.rejoin(ids)
        restored = [uid for uid in ids if self.nodes[uid].restore_crash_snapshot()]
        if restored:
            self.network.mark_profiles_dirty(restored)

    # ---------------------------------------------------------------- metrics

    def personal_networks(self) -> Dict[int, PersonalNetwork]:
        return {uid: node.personal_network for uid, node in self.nodes.items()}

    def stored_replica_versions(self) -> Dict[int, Dict[int, int]]:
        """owner -> (stored user -> replica version); freshness metric input."""
        return {uid: node.stored_profile_versions() for uid, node in self.nodes.items()}

    def current_profile_versions(self) -> Dict[int, int]:
        """user_id -> current (true) profile version."""
        return {uid: node.profile.version for uid, node in self.nodes.items()}
