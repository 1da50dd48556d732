"""The P3Q node: a user, her views, and both gossip modes.

A :class:`P3QNode` combines

* the user's own profile;
* the personal network (``s`` neighbours, ``c`` stored replicas) and random
  view (``r`` random peers) defined in :mod:`repro.gossip.views`;
* the lazy mode -- random peer sampling plus the Algorithm 1 exchange -- run
  once per ``"lazy"`` cycle;
* the eager mode -- query issuing, query gossip and querier-side result
  merging -- run once per ``"eager"`` cycle for every query the node is
  involved in.

The node satisfies both the simulator's :class:`~repro.simulator.node.Node`
interface and the gossip layer's :class:`~repro.gossip.interfaces.GossipPeer`
protocol, and is addressable on the wire: every delivered message lands in
:meth:`P3QNode.handle_message` (the cycle engine's transport) or
:meth:`P3QNode.handle_message_effects` (the service runtime), and both look
up one pair of handler tables.  Step-2/3 control requests and query results
are served from local state by plain functions; only gossip advertisements
and query forwards, which make round-trips of their own, are sans-io
generators, which the engine drives and the service delegates to.

Everything hot a node does rides the incremental runtime documented in
``docs/ARCHITECTURE.md``: its own digest and probe rows live in the
simulation-shared :class:`~repro.gossip.digest.DigestCache` (version-keyed,
rebuilt only when the profile version bumps), digest probes hit the
bit-packed Bloom filter through cached probe-mask rows, and query/similarity
scoring runs on the profile's interned indexes.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..data.models import UserProfile
from ..data.queries import Query
from ..gossip.digest import DigestCache, ProfileDigest
from ..gossip.peer_sampling import PeerSamplingProtocol
from ..gossip.profile_exchange import LazyExchangeProtocol
from ..gossip.views import PersonalNetwork, RandomView
from ..simulator.effects import WireEffects, drive
from ..simulator.engine import PHASE_EAGER, PHASE_LAZY
from ..simulator.node import Node
from ..simulator.transport import (
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    Envelope,
    FullProfilePush,
    FullProfileRequest,
    Message,
    QueryForward,
    QueryResult,
    RemainingReturn,
    VIEW_RANDOM,
)
from .config import P3QConfig
from .eager import EagerGossipProtocol
from .query import CycleSnapshot, ForwardedQueryState, PartialResult, QuerySession
from .scoring import partial_scores


class P3QNode(Node):
    """One user of the P3Q system."""

    def __init__(
        self,
        profile: UserProfile,
        config: P3QConfig,
        peer_sampling: Optional[PeerSamplingProtocol] = None,
        lazy: Optional[LazyExchangeProtocol] = None,
        eager: Optional[EagerGossipProtocol] = None,
        digest_cache: Optional[DigestCache] = None,
    ) -> None:
        super().__init__(profile.user_id)
        self.profile = profile
        self.config = config
        storage = config.storage_for(profile.user_id)
        self.personal_network = PersonalNetwork(
            owner_id=profile.user_id,
            size=config.network_size,
            storage=storage,
        )
        self.random_view = RandomView(owner_id=profile.user_id, size=config.random_view_size)
        #: Incremental digest/probe cache, normally shared by every node of a
        #: simulation (standalone nodes build a private one).
        self.digest_cache = digest_cache or DigestCache(
            num_bits=config.digest_bits, num_hashes=config.digest_hashes
        )
        self._rng = random.Random(f"{config.seed}/node/{profile.user_id}")
        # Protocol objects are usually shared across all nodes of a simulation
        # (they are stateless apart from caches); standalone nodes build their own.
        self.peer_sampling = peer_sampling or PeerSamplingProtocol()
        self.lazy = lazy or LazyExchangeProtocol(
            exchange_size=config.exchange_size,
            three_step=config.three_step_exchange,
        )
        self.eager = eager or EagerGossipProtocol(alpha=config.alpha, lazy=self.lazy)
        #: Query sessions for queries issued *by this node*: the record the
        #: caller reads results from, one per query ever issued.
        self.sessions: Dict[int, QuerySession] = {}
        #: The subset the eager rounds still have to look at, in the same
        #: (issue) order: unfinished sessions, and finished ones that still
        #: hold a remaining list.  The rest are *retired* by
        #: :meth:`close_open_sessions`: a round costs O(open queries), not
        #: O(queries ever issued).
        self._live_sessions: Dict[int, QuerySession] = {}
        #: Remaining-list responsibilities for queries issued by other nodes.
        self.forwarded: Dict[int, ForwardedQueryState] = {}
        #: query_id -> profiles this node has already contributed to it.
        self._contributed: Dict[int, Set[int]] = {}
        #: A free rider gossips digests like everyone else but never answers
        #: common-items requests, profile requests or query forwards (set by
        #: the simulation from the seeded free-rider sample).
        self.free_rider = False
        #: Pre-crash profile snapshot (crash-recovery churn); ``None`` while
        #: the node is up or departed gracefully.
        self._crash_snapshot: Optional[UserProfile] = None

    # ------------------------------------------------------------------ views

    @property
    def rng(self) -> random.Random:
        return self._rng

    def own_digest(self) -> ProfileDigest:
        return self.digest_cache.digest_for(self.profile)

    def stored_digest_sample(self, limit: int) -> List[ProfileDigest]:
        """Digests advertised in a gossip message: own + sample of stored."""
        entries = self.personal_network.stored_entries()
        digests = [entry.digest for entry in entries]
        if len(digests) > limit:
            digests = self._rng.sample(digests, k=limit)
        return [self.own_digest()] + digests

    def action_ids_for_items_of(
        self, subject_id: int, items: FrozenSet[int]
    ) -> Optional[Tuple[int, ...]]:
        """The step-2 reply payload: ``subject_id``'s interned action ids on
        ``items``, served from the node's own profile or a stored replica;
        ``None`` when the node does not hold that profile (any more)."""
        profile = self._held_profile(subject_id)
        if profile is None:
            return None
        return profile.action_ids_for_items(items)

    def full_profile_of(self, subject_id: int) -> Optional[UserProfile]:
        profile = self._held_profile(subject_id)
        if profile is None:
            return None
        return profile.copy()

    def _held_profile(self, subject_id: int) -> Optional[UserProfile]:
        if subject_id == self.node_id:
            return self.profile
        entry = self.personal_network.get(subject_id)
        if entry is not None and entry.profile is not None:
            return entry.profile
        return None

    # --------------------------------------------------------------- lifecycle

    def bootstrap_random_view(self, digests: Sequence[ProfileDigest]) -> None:
        """Seed the random view (initial contact discovery)."""
        self.random_view.merge(digests, self._rng)

    def snapshot_for_crash(self) -> None:
        """Persist the current profile before a (simulated) crash.

        Views and stored replicas survive in memory anyway -- the node object
        is not torn down -- so the profile snapshot is all that is needed to
        model "comes back with its pre-crash state".
        """
        self._crash_snapshot = self.profile.copy()

    def restore_crash_snapshot(self) -> bool:
        """Roll the profile back to the pre-crash snapshot; True if it moved.

        Called on recovery.  When the profile changed while the node was
        down (tag dynamics applied to the dataset reach the node's aliased
        profile object), the node restarts with the *stale* pre-crash state
        -- exercising the staleness paths of the digest cache and replica
        freshness.  Without intervening changes this is a no-op, keeping
        crash churn bit-identical to graceful churn in quiescent runs.
        """
        snapshot, self._crash_snapshot = self._crash_snapshot, None
        if snapshot is None or snapshot.version == self.profile.version:
            return False
        self.profile.restore(snapshot)
        return True

    def on_cycle(self, cycle: int, phase: str) -> None:
        if phase == PHASE_LAZY:
            drive(self.lazy_round_effects(), self.network)
        elif phase == PHASE_EAGER:
            drive(self.eager_round_effects(cycle), self.network)

    # ------------------------------------------------------- sans-io rounds
    #
    # The two round generators below are the node's runtime-agnostic cycle
    # bodies: the engine drives them synchronously (above), the asyncio
    # service runtime awaits them from its gossip / eager timers.

    def lazy_round_effects(self) -> WireEffects:
        """One lazy round: peer sampling plus the Algorithm 1 exchange."""
        # Bottom layer and top layer run in parallel at each lazy cycle.
        yield from self.peer_sampling.run_cycle_effects(self)
        yield from self.lazy.run_cycle_effects(self)

    def eager_round_effects(self, cycle: int) -> WireEffects:
        """One eager round over every query this node participates in."""
        # Snapshot both dicts: the service runtime suspends this generator at
        # every yielded rpc, and a concurrent inbound QueryForward (or a new
        # issue_query) may insert entries mid-round.  Queries arriving during
        # the round wait for the next tick, exactly as in the engine.
        # Own queries: the querier is also a gossip initiator (Algorithm 2).
        for session in list(self._live_sessions.values()):
            if session.remaining:
                session.remaining = yield from self.eager.gossip_query_effects(
                    self, session.query, session.remaining, cycle
                )
        # Queries this node was reached by (Algorithm 3, initiator role).
        for state in list(self.forwarded.values()):
            if state.active:
                state.remaining = yield from self.eager.gossip_query_effects(
                    self, state.query, state.remaining, cycle
                )

    # ------------------------------------------------------------ query (own)

    def issue_query(
        self, query: Query, k: Optional[int] = None, cycle: int = 0
    ) -> QuerySession:
        """Start processing a query issued by this node (Algorithm 2).

        The local partial result (own profile plus every stored replica) is
        computed immediately and recorded as the session's first snapshot,
        at ``cycle``; the remaining list holds the personal-network
        neighbours whose profiles are not stored locally.  ``cycle`` is the
        eager cycle at which the query is issued: a query (re-)issued while
        the eager phase is already running must measure its completion
        latency from that cycle, not from 0.
        """
        if query.querier != self.node_id:
            raise ValueError(
                f"node {self.node_id} cannot issue a query owned by {query.querier}"
            )
        session = QuerySession(
            query=query,
            k=k or self.config.k,
            personal_network_ids=self.personal_network.member_ids(),
            issued_cycle=cycle,
        )
        local_profiles = [self.profile] + list(self.personal_network.stored_profiles().values())
        contributors = [self.node_id] + self.personal_network.stored_ids()
        scores = partial_scores(local_profiles, query)
        session.add_local_result(scores, contributors, cycle=cycle)
        session.set_remaining(self.personal_network.unstored_ids())
        session.close_cycle(cycle)
        self.mark_contributed(query.query_id, contributors)
        reissued = query.query_id in self.sessions
        self.sessions[query.query_id] = session
        self._live_sessions[query.query_id] = session
        if reissued:
            self._restore_issue_order()
        if self._network is not None:
            self._network.note_query_session(self.node_id)
        return session

    def receive_partial_result(self, partial: PartialResult) -> None:
        session = self.sessions.get(partial.query_id)
        if session is not None:
            session.receive_partial(partial)

    def close_open_sessions(self, cycle: int) -> Dict[int, CycleSnapshot]:
        """Merge the partial results of this cycle for every own *open* query.

        The cycle boundary of both runtimes; returns the snapshots taken,
        keyed by query id.  A finished session is left alone -- its result
        is final and late partials are dropped at receipt -- so a node's
        per-tick cost does not grow with the queries it has answered.
        Sessions with nothing left to do (closed, no remaining list: exactly
        the ones :meth:`has_active_queries` and :meth:`eager_round_effects`
        skip) then leave the eager-round scans.
        """
        snapshots = {
            query_id: session.close_cycle(cycle)
            for query_id, session in self._live_sessions.items()
            if not session.closed
        }
        self._live_sessions = {
            query_id: session
            for query_id, session in self._live_sessions.items()
            if session.remaining or not session.closed
        }
        return snapshots

    def _restore_issue_order(self) -> None:
        """Re-sort the live sessions into ``sessions`` order after an
        out-of-order entry; the round scans draw from the node rng, so
        their order is behaviour."""
        live = self._live_sessions
        self._live_sessions = {
            query_id: session
            for query_id, session in self.sessions.items()
            if query_id in live
        }

    def has_active_queries(self) -> bool:
        """True while any query this node participates in still has work."""
        if any(session.remaining for session in self._live_sessions.values()):
            return True
        return any(state.active for state in self.forwarded.values())

    # ------------------------------------------------------- message handling

    def handle_message(self, envelope: Envelope) -> Optional[Message]:
        """Process one delivered transport message; return the reply, if any.

        The cycle engine's wire entry point: the transport calls it for
        every delivery.  Replies are returned to the transport, which prices
        and routes them (synchronously for a live round-trip, asynchronously
        for an exchange a latency transport deferred).  A handler that makes
        round-trips of its own is driven against the live network.  Unknown
        message types are silently ignored (no reply).
        """
        mtype = type(envelope.message)
        handler = _MESSAGE_HANDLERS.get(mtype)
        if handler is not None:
            return handler(self, envelope)
        handler = _ROUND_TRIP_HANDLERS.get(mtype)
        if handler is None:
            return None
        return drive(handler(self, envelope), self.network)

    def handle_message_effects(self, envelope: Envelope) -> WireEffects:
        """The service runtime's wire entry point (yields wire effects).

        The asyncio service runtime awaits this generator for every inbound
        frame; its return value is the reply message (or ``None``).  It
        dispatches through the same two tables as :meth:`handle_message`,
        delegating to a round-trip handler with ``yield from`` instead of
        driving it.
        """
        mtype = type(envelope.message)
        handler = _MESSAGE_HANDLERS.get(mtype)
        if handler is not None:
            return handler(self, envelope)
        handler = _ROUND_TRIP_HANDLERS.get(mtype)
        if handler is None:
            return None
        return (yield from handler(self, envelope))

    def _handle_common_items_request(self, envelope: Envelope) -> CommonItemsReply:
        message = envelope.message
        if self.free_rider:
            # Indistinguishable from "I no longer store that profile": the
            # failure reply is free on the wire and the asker moves on.
            return CommonItemsReply(subject_id=message.subject_id, actions=None)
        return CommonItemsReply(
            subject_id=message.subject_id,
            actions=self.action_ids_for_items_of(message.subject_id, message.items),
        )

    def _handle_digest_advertisement_effects(self, envelope: Envelope) -> WireEffects:
        """A gossip advertisement: a random-view swap is pure local state, a
        personal-view exchange integrates through step-2/3 round-trips."""
        if envelope.message.view == VIEW_RANDOM:
            return self.peer_sampling.handle_advertisement(self, envelope)
        return (yield from self.lazy.handle_advertisement_effects(self, envelope))

    def _handle_full_profile_request(self, envelope: Envelope) -> FullProfilePush:
        message = envelope.message
        if self.free_rider:
            return FullProfilePush(subject_id=message.subject_id, profile=None)
        return FullProfilePush(
            subject_id=message.subject_id,
            profile=self.full_profile_of(message.subject_id),
        )

    def _handle_query_result(self, envelope: Envelope) -> None:
        self.receive_partial_result(envelope.message.partial)
        return None

    # --------------------------------------------------- query (reached nodes)

    def _handle_query_forward_effects(self, envelope: Envelope) -> WireEffects:
        """Handle an incoming eager gossip message (Algorithm 3, destination)."""
        message = envelope.message
        query = message.query
        if self.free_rider:
            # Hand the whole remaining list straight back: no contribution,
            # no kept share, no partial result.  Protocol-legal (the sender
            # merges the return like any alpha share) but pure dead weight.
            return RemainingReturn(query_id=query.query_id, remaining=message.remaining)
        returned, kept = yield from self.eager.process_at_destination_effects(
            self, query, list(message.remaining), message.cycle
        )
        return self._absorb_forward(query, returned, kept)

    def _absorb_forward(self, query: Query, returned: List[int], kept: List[int]) -> RemainingReturn:
        """Merge the kept share into the forwarded-list state; build the return."""
        if kept:
            state = self.forwarded.get(query.query_id)
            if state is None:
                self.forwarded[query.query_id] = ForwardedQueryState(
                    query=query, remaining=list(kept)
                )
            else:
                merged = set(state.remaining) | set(kept)
                state.remaining = sorted(merged)
            self.network.note_eager_work(self.node_id)
        return RemainingReturn(query_id=query.query_id, remaining=tuple(returned))

    def _handle_remaining_return(self, envelope: Envelope) -> None:
        """Merge an α share arriving *after* its forward (latency transport).

        The synchronous path consumes the return as the forward's reply; this
        handler only runs for deferred exchanges, where the share must rejoin
        whatever remaining list the node has accumulated meanwhile.
        """
        message = envelope.message
        session = self.sessions.get(message.query_id)
        if session is not None:
            session.remaining = sorted(set(session.remaining) | set(message.remaining))
            if session.remaining and message.query_id not in self._live_sessions:
                # A late share revives a retired session.
                self._live_sessions[message.query_id] = session
                self._restore_issue_order()
            self.network.note_eager_work(self.node_id)
            return None
        state = self.forwarded.get(message.query_id)
        if state is not None:
            state.remaining = sorted(set(state.remaining) | set(message.remaining))
            self.network.note_eager_work(self.node_id)
        return None

    def profile_for_query(self, user_id: int) -> Optional[UserProfile]:
        """A profile this node can contribute to a query, or ``None``."""
        return self._held_profile(user_id)

    def contributed_profiles(self, query_id: int) -> Set[int]:
        return self._contributed.get(query_id, set())

    def mark_contributed(self, query_id: int, user_ids: Sequence[int]) -> None:
        self._contributed.setdefault(query_id, set()).update(user_ids)

    # ----------------------------------------------------------------- metrics

    def stored_profile_versions(self) -> Dict[int, int]:
        """user_id -> version of the stored replica (freshness metric input)."""
        return {
            uid: profile.version
            for uid, profile in self.personal_network.stored_profiles().items()
        }


#: Exact-type dispatch tables shared by :meth:`P3QNode.handle_message` (the
#: cycle engine) and :meth:`P3QNode.handle_message_effects` (the service).
#: Handlers that answer from local state are plain functions, so the hot
#: path pays no generator (common-item requests dominate every lazy cycle);
#: only the two that make round-trips mid-handling are generators.  A dict
#: lookup beats an isinstance chain.
_MESSAGE_HANDLERS = {
    CommonItemsRequest: P3QNode._handle_common_items_request,
    FullProfileRequest: P3QNode._handle_full_profile_request,
    QueryResult: P3QNode._handle_query_result,
    RemainingReturn: P3QNode._handle_remaining_return,
}
_ROUND_TRIP_HANDLERS = {
    DigestAdvertisement: P3QNode._handle_digest_advertisement_effects,
    QueryForward: P3QNode._handle_query_forward_effects,
}
