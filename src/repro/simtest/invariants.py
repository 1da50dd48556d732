"""Cross-cutting invariants checked during a fuzzed simulation.

Each :class:`InvariantChecker` watches one system-wide property across *any*
composition of churn, loss, latency, profile dynamics and query workload.
Checkers are registered in :data:`REGISTRY` and instantiated per run by
:func:`default_checkers`; the runner feeds them

* every transport :class:`~repro.simulator.transport.WireEvent` (message
  delivery, all legs and statuses);
* every engine cycle boundary (lazy and eager);
* every eager cycle's query snapshots;
* one final pass when the scenario ends.

A violated invariant raises :class:`InvariantViolation` immediately -- the
run is already broken, finishing it only blurs the evidence.  The exception
carries the invariant's registry name so the shrinker can check that a
simplified scenario still fails *the same way*.

The byte-accounting checker deliberately re-derives the paper's cost model
(Section 3.3.2 constants) instead of calling
:func:`repro.gossip.sizes.total_bytes`: the whole point is an *independent*
pricing of the observed wire traffic, so a regression in the production
sizers -- the kind injected by ``python -m repro simtest --self-check`` --
shows up as a disagreement instead of being trusted twice.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Type

from ..simulator.conditions import PartitionCut
from ..simulator.transport import (
    DEFERRED,
    DELIVERED,
    OP_DRAIN,
    OP_REQUEST,
    OP_SEND,
    REPLY_DROPPED,
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    FullProfilePush,
    FullProfileRequest,
    Message,
    QueryForward,
    QueryResult,
    RemainingReturn,
    WireEvent,
)
from ..simulator.stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_FULL_PROFILES,
    KIND_PARTIAL_RESULT,
    KIND_RANDOM_VIEW,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import RunContext
    from .spec import ScenarioSpec


class InvariantViolation(AssertionError):
    """A system-wide property failed during a fuzzed run."""

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"[{invariant}] {detail}")
        self.invariant = invariant
        self.detail = detail


class InvariantChecker:
    """Base of all checkers; every hook is optional."""

    #: Registry name (stable: reports, shrinking and CLI filtering use it).
    name = "base"

    def __init__(self) -> None:
        self.ctx: Optional["RunContext"] = None

    @classmethod
    def applies(cls, spec: "ScenarioSpec") -> bool:
        """Whether this invariant is meaningful for the given scenario."""
        return True

    def bind(self, ctx: "RunContext") -> None:
        self.ctx = ctx

    def fail(self, detail: str) -> None:
        raise InvariantViolation(self.name, detail)

    # -- hooks ----------------------------------------------------------------

    def on_wire_event(self, event: WireEvent) -> None:
        pass

    def on_cycle_end(self, phase: str, cycle: int) -> None:
        pass

    def on_eager_cycle(self, cycle: int, snapshots: Dict[int, "object"]) -> None:
        pass

    def on_finish(self) -> None:
        pass


#: name -> checker class.
REGISTRY: Dict[str, Type[InvariantChecker]] = {}


def register(cls: Type[InvariantChecker]) -> Type[InvariantChecker]:
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate invariant name {cls.name!r}")
    REGISTRY[cls.name] = cls
    return cls


def default_checkers(spec: "ScenarioSpec") -> List[InvariantChecker]:
    """Fresh instances of every registered checker that applies to ``spec``."""
    return [cls() for cls in REGISTRY.values() if cls.applies(spec)]


# ------------------------------------------------------- reference cost model

#: The paper's Section 3.3.2 constants, restated independently of
#: ``repro.gossip.sizes`` (see the module docstring for why).
_REF_USER_ID = 4
_REF_ITEM_ID = 16
_REF_TAG = 16
_REF_SCORE = 4
_REF_ACTION = _REF_ITEM_ID + _REF_TAG + _REF_USER_ID
_REF_DIGEST = 20_000 // 8
_REF_VERSION = 4
#: A swapped, offered or pulled ``(user id, version)`` descriptor.
_REF_DESCRIPTOR = _REF_USER_ID + _REF_VERSION


def reference_kind(message: Message) -> Optional[str]:
    """The traffic kind a message is recorded under (``None`` = not charged)."""
    mtype = type(message)
    if mtype is DigestAdvertisement:
        return KIND_RANDOM_VIEW
    if mtype in (DigestOffer, DigestPullRequest, DigestPullReply):
        return KIND_DIGESTS
    if mtype is CommonItemsReply:
        return KIND_COMMON_ITEMS if message.actions is not None else None
    if mtype is FullProfilePush:
        return KIND_FULL_PROFILES if message.profile is not None else None
    if mtype is QueryForward:
        return KIND_REMAINING_FORWARD
    if mtype is RemainingReturn:
        return KIND_REMAINING_RETURN
    if mtype is QueryResult:
        return KIND_PARTIAL_RESULT
    if mtype in (CommonItemsRequest, FullProfileRequest):
        return None
    raise InvariantViolation(
        "byte-conservation", f"message type {mtype.__name__} has no reference price"
    )


def reference_price(message: Message) -> int:
    """Independent wire price of one message under the paper's cost model."""
    mtype = type(message)
    if mtype is DigestPullReply:
        return len(message.digests) * (_REF_DIGEST + _REF_USER_ID)
    if mtype in (DigestAdvertisement, DigestOffer, DigestPullRequest):
        return len(message.descriptors) * _REF_DESCRIPTOR
    if mtype is CommonItemsReply:
        return 0 if message.actions is None else len(message.actions) * _REF_ACTION
    if mtype is FullProfilePush:
        return 0 if message.profile is None else len(message.profile) * _REF_ACTION
    if mtype in (QueryForward, RemainingReturn):
        return len(message.remaining) * _REF_USER_ID
    if mtype is QueryResult:
        partial = message.partial
        return len(partial.scores) * (_REF_ITEM_ID + _REF_SCORE) + len(
            partial.contributors
        ) * _REF_USER_ID
    return 0


# ------------------------------------------------------------------- checkers


@register
class ByteConservationChecker(InvariantChecker):
    """Transport byte accounting conserves the independently-priced traffic.

    Every *accounted* wire event (request legs, reply legs, one-way sends --
    at send time, exactly like the production accounting; lost messages still
    cost their sender) is priced by the reference model above.  At every
    cycle boundary and at the end of the run the
    :class:`~repro.simulator.stats.StatsCollector` totals must equal the
    reference totals, per kind, in both bytes and message counts.
    """

    name = "byte-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._bytes: Dict[str, int] = defaultdict(int)
        self._messages: Dict[str, int] = defaultdict(int)

    def on_wire_event(self, event: WireEvent) -> None:
        if not event.accounted or event.op == OP_DRAIN:
            return
        kind = reference_kind(event.message)
        if kind is None:
            return
        self._bytes[kind] += reference_price(event.message)
        self._messages[kind] += 1

    def _compare(self, when: str) -> None:
        stats = self.ctx.simulation.stats
        observed_bytes = {k: v for k, v in stats.bytes_by_kind().items() if v or self._bytes.get(k)}
        expected_bytes = {k: v for k, v in self._bytes.items() if v or observed_bytes.get(k)}
        if observed_bytes != expected_bytes:
            self.fail(
                f"{when}: accounted bytes diverge from the reference cost model; "
                f"stats={observed_bytes} reference={dict(expected_bytes)}"
            )
        for kind, count in self._messages.items():
            recorded = stats.total_messages(kind)
            if recorded != count:
                self.fail(
                    f"{when}: {kind} message count diverges; "
                    f"stats={recorded} observed-on-wire={count}"
                )
        if stats.total_bytes() != sum(self._bytes.values()):
            self.fail(
                f"{when}: total bytes diverge; stats={stats.total_bytes()} "
                f"reference={sum(self._bytes.values())}"
            )

    def on_cycle_end(self, phase: str, cycle: int) -> None:
        self._compare(f"{phase} cycle {cycle}")

    def on_finish(self) -> None:
        self._compare("end of run")


@register
class ViewBoundsChecker(InvariantChecker):
    """Every node's views respect their configured bounds at cycle boundaries.

    Personal networks hold at most ``s`` members with positive scores and
    never the owner; replicas exist only for the top-``c`` ranked members
    (``c`` capped by ``s``); random views hold at most ``r`` members, never
    the owner.
    """

    name = "view-bounds"

    def _check(self, when: str) -> None:
        config = self.ctx.simulation.config
        for uid, node in self.ctx.simulation.nodes.items():
            pn = node.personal_network
            if len(pn) > config.network_size:
                self.fail(f"{when}: node {uid} personal network has {len(pn)} > s={config.network_size} members")
            if uid in pn:
                self.fail(f"{when}: node {uid} is a member of her own personal network")
            budget = min(config.storage_for(uid), config.network_size)
            stored = pn.stored_ids()
            if len(stored) > budget:
                self.fail(f"{when}: node {uid} stores {len(stored)} > c={budget} replicas")
            top = {entry.user_id for entry in pn.ranked_entries()[: pn.storage]}
            outside = set(stored) - top
            if outside:
                self.fail(f"{when}: node {uid} stores replicas outside the top-c: {sorted(outside)}")
            for entry in pn.ranked_entries():
                if entry.score <= 0:
                    self.fail(f"{when}: node {uid} keeps zero-score neighbour {entry.user_id}")
            rv = node.random_view
            if len(rv) > config.random_view_size:
                self.fail(f"{when}: node {uid} random view has {len(rv)} > r={config.random_view_size} members")
            if uid in rv:
                self.fail(f"{when}: node {uid} is a member of her own random view")

    def on_cycle_end(self, phase: str, cycle: int) -> None:
        self._check(f"{phase} cycle {cycle}")

    def on_finish(self) -> None:
        self._check("end of run")


@register
class ReplicaFreshnessChecker(InvariantChecker):
    """Stored replicas are well-formed and never newer than the live profile.

    A replica of user ``u`` must actually be a profile of ``u``, and its
    version can trail the live profile (staleness is the paper's freshness
    metric) but never lead it -- a replica from the future means versions
    were corrupted somewhere in the exchange.
    """

    name = "replica-freshness"

    def _check(self, when: str) -> None:
        nodes = self.ctx.simulation.nodes
        for uid, node in nodes.items():
            for subject, replica in node.personal_network.stored_profiles().items():
                if replica.user_id != subject:
                    self.fail(
                        f"{when}: node {uid} stores a replica of {replica.user_id} "
                        f"under key {subject}"
                    )
                live = nodes[subject].profile.version
                if replica.version > live:
                    self.fail(
                        f"{when}: node {uid} holds replica of {subject} at version "
                        f"{replica.version} > live version {live}"
                    )

    def on_cycle_end(self, phase: str, cycle: int) -> None:
        self._check(f"{phase} cycle {cycle}")

    def on_finish(self) -> None:
        self._check("end of run")


@register
class QueryLifecycleChecker(InvariantChecker):
    """Wire-level query protocol rules, tracked per (node, query).

    * **No retry after hand-off**: once a node's ``QueryForward`` ends in
      ``REPLY_DROPPED`` (the destination processed the list; only the α
      share was lost) or ``DEFERRED`` (the list is in flight), that node
      must not forward the same query again until new remaining work
      reaches it (a delivered forward or ``RemainingReturn``).  Retrying
      would duplicate work the destination already owns.
    * **No duplicate contribution**: a node never ships two partial results
      for the same query with overlapping contributor profiles.
    """

    name = "query-lifecycle"

    def __init__(self) -> None:
        super().__init__()
        #: (query_id, node) pairs that handed their remaining list off.
        self._handed_off: Set[Tuple[int, int]] = set()
        #: (query_id, sender) -> contributors shipped so far (a tuple: one
        #: entry per partial result a run ships, most of them one or two ids).
        self._contributed: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def on_wire_event(self, event: WireEvent) -> None:
        message = event.message
        mtype = type(message)
        if mtype is QueryForward:
            self._on_forward(event)
        elif mtype is RemainingReturn:
            if event.status == DELIVERED:
                self._handed_off.discard((message.query_id, event.receiver))
        elif mtype is QueryResult and event.op == OP_SEND:
            self._on_result_emitted(event)

    def _on_forward(self, event: WireEvent) -> None:
        query_id = event.message.query.query_id
        if event.op == OP_REQUEST:
            key = (query_id, event.sender)
            if key in self._handed_off:
                self.fail(
                    f"node {event.sender} re-forwarded query {query_id} after "
                    "handing its remaining list off (REPLY_DROPPED/DEFERRED)"
                )
            if event.status in (REPLY_DROPPED, DEFERRED):
                self._handed_off.add(key)
            if event.status in (DELIVERED, REPLY_DROPPED):
                # The destination processed the list and now owns its share.
                self._handed_off.discard((query_id, event.receiver))
        elif event.op == OP_DRAIN and event.status == DELIVERED:
            self._handed_off.discard((query_id, event.receiver))

    def _on_result_emitted(self, event: WireEvent) -> None:
        partial = event.message.partial
        key = (partial.query_id, event.sender)
        shipped = self._contributed.get(key, ())
        overlap = set(shipped).intersection(partial.contributors)
        if overlap:
            self.fail(
                f"node {event.sender} contributed profiles {sorted(overlap)} twice "
                f"to query {partial.query_id}"
            )
        self._contributed[key] = shipped + tuple(partial.contributors)


@register
class QueryProgressChecker(InvariantChecker):
    """Querier-side result state only ever improves.

    Coverage (profiles contributing to a query) is monotone non-decreasing
    under *every* transport and schedule: contributions accumulate and are
    never retracted.  The set of used profiles stays within the profiles the
    querier expected at issue time (her personal network plus herself).
    """

    name = "query-progress"

    def __init__(self) -> None:
        super().__init__()
        self._last_used: Dict[int, int] = {}

    def on_eager_cycle(self, cycle: int, snapshots: Dict[int, "object"]) -> None:
        for query_id, snapshot in snapshots.items():
            previous = self._last_used.get(query_id)
            if previous is not None and snapshot.profiles_used < previous:
                self.fail(
                    f"query {query_id}: profiles_used fell from {previous} to "
                    f"{snapshot.profiles_used} at eager cycle {cycle}"
                )
            self._last_used[query_id] = snapshot.profiles_used

    def on_finish(self) -> None:
        for query_id, session in self.ctx.sessions.items():
            stray = session.profiles_used - session.expected_profiles
            if stray:
                self.fail(
                    f"query {query_id}: profiles {sorted(stray)} contributed but "
                    "were never part of the querier's personal network"
                )


@register
class PartitionIsolationChecker(InvariantChecker):
    """While a partition cut is active, no message crosses it.

    The partition cut must drop (synchronous sends) or hold
    (in-flight envelopes) everything whose endpoints sit in different
    components between the split and heal cycles.  Any wire event that
    reached a handler across the cut -- a delivered request / send / drain,
    a delivered reply, or a request whose handler ran even though its reply
    was then lost -- is a containment breach.
    """

    name = "partition-isolation"

    @classmethod
    def applies(cls, spec: "ScenarioSpec") -> bool:
        return spec.partition is not None

    def on_wire_event(self, event: WireEvent) -> None:
        # REPLY_DROPPED still means the request leg crossed and was processed.
        if event.status not in (DELIVERED, REPLY_DROPPED):
            return
        cut = self.ctx.simulation.network.transport.condition(PartitionCut)
        if not cut.active():
            return
        sender_side = cut.component(event.sender)
        receiver_side = cut.component(event.receiver)
        if sender_side != receiver_side:
            self.fail(
                f"{event.op} of {type(event.message).__name__} from node "
                f"{event.sender} (component {sender_side}) reached node "
                f"{event.receiver} (component {receiver_side}) across an "
                "active partition cut"
            )


@register
class FreeRiderContainmentChecker(InvariantChecker):
    """Free riders advertise digests but never serve anyone.

    A free rider must not ship an accountable :class:`CommonItemsReply`, an
    accountable :class:`FullProfilePush`, or any :class:`QueryResult`; and
    when a query forward reaches one, the :class:`RemainingReturn` it hands
    back must echo the *entire* forwarded list (no silent work claimed).
    The protocol-legal failure forms (``actions=None`` / ``profile=None``)
    are exactly what an honest node answers when it lacks the data, so the
    rest of the stack needs no special-casing.
    """

    name = "free-rider-containment"

    @classmethod
    def applies(cls, spec: "ScenarioSpec") -> bool:
        return spec.free_rider_fraction > 0.0

    def __init__(self) -> None:
        super().__init__()
        #: (rider, query_id) -> remaining list last forwarded to that rider.
        self._forwarded: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def on_wire_event(self, event: WireEvent) -> None:
        riders = self.ctx.simulation.free_rider_ids
        if not riders:
            return
        message = event.message
        mtype = type(message)
        if mtype is QueryForward:
            handler_ran = (
                event.op == OP_REQUEST
                and event.status in (DELIVERED, REPLY_DROPPED)
            ) or (event.op == OP_DRAIN and event.status == DELIVERED)
            if handler_ran and event.receiver in riders:
                self._forwarded[(event.receiver, message.query.query_id)] = (
                    message.remaining
                )
            return
        if event.sender not in riders:
            return
        if mtype is CommonItemsReply and message.actions is not None:
            self.fail(
                f"free rider {event.sender} served a common-items reply "
                f"for subject {message.subject_id}"
            )
        elif mtype is FullProfilePush and message.profile is not None:
            self.fail(
                f"free rider {event.sender} served a full profile "
                f"of subject {message.subject_id}"
            )
        elif mtype is QueryResult:
            self.fail(
                f"free rider {event.sender} shipped a partial result "
                f"for query {message.partial.query_id}"
            )
        elif mtype is RemainingReturn:
            expected = self._forwarded.get((event.sender, message.query_id))
            if expected is not None and tuple(message.remaining) != tuple(expected):
                self.fail(
                    f"free rider {event.sender} returned "
                    f"{list(message.remaining)} for query {message.query_id} "
                    f"instead of echoing the forwarded list {list(expected)}"
                )


@register
class RecallConvergenceChecker(InvariantChecker):
    """Recall converges to the exact answer under the direct wire.

    Applies to direct-equivalent scenarios (no wire condition, no free
    riders) without profile dynamics, against the fixed
    reference: the exact top-k over the profiles the querier expected at
    issue time.

    Fuzzing itself refined this invariant: the *anytime* NRA estimate shown
    before a session completes is legitimately non-monotone (a transiently
    leading item can displace a reference item until the trailing partial
    lists arrive -- seed 0, scenario 24 exhibits a 0.83 -> 0.67 -> 1.0
    recall trajectory on a healthy system).  What the system does guarantee,
    and what is checked here:

    * **completion stability** -- when a session completes, its snapshot
      top-k contains the full reference answer (recall 1) at its closing
      snapshot;
    * **quiescent convergence** -- with no churn either, every query's
      session completes within the horizon (and therefore ends at recall 1).

    Both are checked at the end of the run: a closing snapshot is a
    session's last and never changes, and a session can close at its issue
    cycle, before any eager cycle reports it.
    """

    name = "recall-convergence"

    @classmethod
    def applies(cls, spec: "ScenarioSpec") -> bool:
        return spec.direct_equivalent and spec.dynamics is None

    def _recall(self, query_id: int, items) -> float:
        reference = self.ctx.references.get(query_id)
        if not reference:
            return 1.0
        return len(set(items) & set(reference)) / len(reference)

    def on_finish(self) -> None:
        for query_id, session in self.ctx.sessions.items():
            if session.closed:
                value = self._recall(query_id, session.snapshots[-1].items)
                if value < 1.0 - 1e-12:
                    self.fail(
                        f"query {query_id}: recall {value:.6f} < 1 at its closing "
                        f"snapshot (eager cycle {session.closed_cycle}) although the "
                        "session is complete under a direct wire"
                    )
            elif self.ctx.spec.quiescent:
                self.fail(
                    f"query {query_id}: session incomplete after the horizon in a "
                    f"quiescent direct-wire scenario (coverage {session.coverage:.3f})"
                )
