"""Explicit message-passing transport layer.

Every peer interaction of the P3Q stack flows through a
:class:`Transport` as a typed, frozen :class:`Message`:

============================  =============================================
message                       meaning
============================  =============================================
:class:`DigestAdvertisement`  digests advertised in a gossip exchange --
                              random-view digests (peer sampling) or
                              stored-profile digests (lazy Algorithm 1)
:class:`CommonItemsRequest`   step-2 ask: "subject's actions on these items"
:class:`CommonItemsReply`     the matching tagging actions (or ``None``)
:class:`FullProfileRequest`   step-3 ask for a complete profile replica
:class:`FullProfilePush`      the full profile (or ``None`` if not held)
:class:`QueryForward`         an eager remaining-list forward (Algorithm 3)
:class:`RemainingReturn`      the alpha-share handed back to the forwarder
:class:`QueryResult`          a partial result shipped to the querier
============================  =============================================

Reifying the wire protocol as data is what makes network conditions
composable: the same protocol code runs unchanged over the one
:class:`Transport`, which carries a tuple of condition objects
(:mod:`repro.simulator.conditions`: loss, delay, partition cut, degraded
links, NAT).  With no condition it is synchronous and lossless,
bit-identical to the seed's direct method calls -- the default, under which
all reproduced figures run -- and it is importable as
:class:`DirectTransport` under that reading.

Delivery semantics
------------------

``request`` performs a round-trip: the receiver's ``handle_message`` runs
synchronously, driving any nested round-trip of its own, and its reply is
returned in the :class:`Dispatch`.
Cycle-granularity latency applies at *exchange* granularity: a deferred
request is queued whole, the receiver processes it when the engine drains
the queue, and the reply is then routed back to the initiator as a one-way
message (itself subject to delay).  The control sub-requests *inside* an
exchange (:class:`CommonItemsRequest`, :class:`FullProfileRequest`) always
complete within the cycle in which the exchange is processed -- real
round-trip times are far below the paper's 60 s / 5 s cycle lengths -- but
remain individually droppable by a loss condition.

Byte accounting happens in exactly one place, :meth:`Transport.account`:
every payload-bearing message is priced by
:func:`repro.gossip.sizes.total_bytes` and recorded at *send* time (a lost
message still costs its sender bandwidth).  Pure control messages (the two
request types, which the paper's cost model does not charge) and failure
replies carrying a ``None`` payload are never recorded, which reproduces the
seed's accounting exactly.

Observation
-----------

The transport accepts *observers* (:meth:`Transport.add_observer`): callables
receiving one :class:`WireEvent` per wire action -- request legs, reply legs,
one-way sends and deferred (drained) deliveries, each with its final delivery
status and whether the accounting hook ran for it.  Observers are passive:
they cannot alter delivery, and with none registered the hot paths pay a
single falsy check per message.  The simulation-fuzzing subsystem
(:mod:`repro.simtest`) uses them to cross-check byte accounting and query
lifecycle invariants against an independent model of the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from .conditions import AsymmetrySpec, Condition, PartitionSpec, build_conditions
from .stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_FULL_PROFILES,
    KIND_PARTIAL_RESULT,
    KIND_RANDOM_VIEW,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..data.models import TaggingAction, UserProfile
    from ..data.queries import Query
    from ..gossip.digest import ProfileDigest
    from ..p3q.query import PartialResult
    from .network import Network

ConditionT = TypeVar("ConditionT", bound=Condition)

#: ``DigestAdvertisement.view`` values.
VIEW_RANDOM = "random"
VIEW_PERSONAL = "personal"

#: Dispatch statuses.
DELIVERED = "delivered"
DROPPED = "dropped"
#: The request leg arrived and was processed, but the *reply* was lost.
#: Callers must not retry: the receiver's side effects already happened.
REPLY_DROPPED = "reply_dropped"
DEFERRED = "deferred"
UNREACHABLE = "unreachable"
#: A deferred envelope whose receiver departed while it was in flight (the
#: bytes were already spent at send time; only observers ever see this).
LOST = "lost"


# ------------------------------------------------------------------- messages


class Message:
    """Base of the wire-message catalogue.

    ``kind`` is the traffic kind recorded by the stats collector (``None``
    for control messages the cost model does not charge); ``DEFERRABLE``
    marks the top-level exchange messages a delay condition may defer.
    """

    __slots__ = ()

    kind: Optional[str] = None
    DEFERRABLE = False

    @property
    def accountable(self) -> bool:
        """False for failure replies whose payload is ``None``."""
        return True


@dataclass(frozen=True, slots=True)
class DigestAdvertisement(Message):
    """Digests advertised in one direction of a gossip exchange."""

    digests: Tuple["ProfileDigest", ...]
    #: :data:`VIEW_RANDOM` (peer sampling) or :data:`VIEW_PERSONAL` (lazy).
    view: str

    DEFERRABLE = True

    @property
    def kind(self) -> str:  # type: ignore[override]
        return KIND_RANDOM_VIEW if self.view == VIEW_RANDOM else KIND_DIGESTS


@dataclass(frozen=True, slots=True)
class CommonItemsRequest(Message):
    """Step 2 of the lazy exchange: ask the profile holder for the actions
    of ``subject_id`` restricted to the (Bloom-probed) common items."""

    subject_id: int
    items: FrozenSet[int]


@dataclass(frozen=True, slots=True)
class CommonItemsReply(Message):
    """The requested tagging actions; ``None`` when the holder no longer
    stores the subject's profile (the request simply fails).

    ``actions`` carries the subject's actions on the common items as a flat
    ascending tuple of *interned action ids* without repeats
    (:mod:`repro.data.interning`,
    :meth:`~repro.data.models.UserProfile.action_ids_for_items`): interning
    is a bijection, so ``len(actions)`` -- which is all the cost model
    charges -- and the receiver-side overlap score are exactly those of the
    ``(item, tag)`` representation.  The tuple is shared, never copied: the
    subject's per-item tuple for a one-item request, her memoised reply
    otherwise.
    """

    subject_id: int
    actions: Optional[Tuple[int, ...]]

    kind = KIND_COMMON_ITEMS

    @property
    def accountable(self) -> bool:
        return self.actions is not None


@dataclass(frozen=True, slots=True)
class FullProfileRequest(Message):
    """Step 3 of the lazy exchange: ask for a complete profile replica."""

    subject_id: int


@dataclass(frozen=True, slots=True)
class FullProfilePush(Message):
    """A complete profile copy; ``None`` when the sender does not hold it."""

    subject_id: int
    profile: Optional["UserProfile"]

    kind = KIND_FULL_PROFILES

    @property
    def accountable(self) -> bool:
        return self.profile is not None


@dataclass(frozen=True, slots=True)
class QueryForward(Message):
    """An eager gossip: the query plus the forwarded remaining list."""

    query: "Query"
    remaining: Tuple[int, ...]
    #: Eager cycle at which the forward was emitted (stamps partial results).
    cycle: int

    kind = KIND_REMAINING_FORWARD
    DEFERRABLE = True


@dataclass(frozen=True, slots=True)
class RemainingReturn(Message):
    """The share of a forwarded remaining list handed back to the sender."""

    query_id: int
    remaining: Tuple[int, ...]

    kind = KIND_REMAINING_RETURN
    DEFERRABLE = True


@dataclass(frozen=True, slots=True)
class QueryResult(Message):
    """A partial result list sent directly to the querier."""

    partial: "PartialResult"

    kind = KIND_PARTIAL_RESULT
    DEFERRABLE = True


# ------------------------------------------------------------------ envelopes


class Envelope(NamedTuple):
    """One message in flight: addressing plus delivery metadata.

    A named tuple: envelopes are allocated once or twice per round-trip on
    the hottest path of the simulator, and tuple construction is C-level.
    """

    sender: int
    receiver: int
    message: Message
    query_id: Optional[int]
    expects_reply: bool


class Dispatch:
    """Outcome of a transport round-trip."""

    __slots__ = ("status", "reply")

    def __init__(self, status: str, reply: Optional[Message]) -> None:
        self.status = status
        self.reply = reply

    @property
    def delivered(self) -> bool:
        return self.status == DELIVERED

    @property
    def deferred(self) -> bool:
        return self.status == DEFERRED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dispatch({self.status}, reply={type(self.reply).__name__ if self.reply else None})"


#: ``WireEvent.op`` values.
OP_REQUEST = "request"
OP_REPLY = "reply"
OP_SEND = "send"
OP_DRAIN = "drain"


class WireEvent(NamedTuple):
    """One observable wire action, reported to transport observers.

    ``op`` is the leg (:data:`OP_REQUEST` for the forward leg of a round
    trip, :data:`OP_REPLY` for its answer, :data:`OP_SEND` for a one-way
    send, :data:`OP_DRAIN` for a deferred envelope delivered -- or lost --
    by :meth:`Transport.drain`); ``status`` is the leg's final delivery
    status and ``accounted`` records whether the byte-accounting hook ran
    for this message (drained envelopes were accounted when first sent).
    """

    op: str
    sender: int
    receiver: int
    message: Message
    status: str
    accounted: bool
    query_id: Optional[int]


#: An observer: called once per wire event, must not mutate anything.
TransportObserver = Callable[[WireEvent], None]


#: Reply-less outcomes are immutable, so one instance each serves every call
#: (the request path is hot: thousands of control round-trips per cycle).
_UNREACHABLE_DISPATCH = Dispatch(UNREACHABLE, None)
_DROPPED_DISPATCH = Dispatch(DROPPED, None)
_REPLY_DROPPED_DISPATCH = Dispatch(REPLY_DROPPED, None)
_DEFERRED_DISPATCH = Dispatch(DEFERRED, None)
_DELIVERED_SILENT_DISPATCH = Dispatch(DELIVERED, None)


# ------------------------------------------------------------------ transport


class Transport:
    """Routes envelopes between nodes, through whatever conditions it carries.

    ``conditions`` is a tuple of :class:`~repro.simulator.conditions.Condition`
    objects in evaluation order, built from the five configuration values by
    :func:`~repro.simulator.conditions.build_conditions`.  The empty tuple
    *is* the direct wire -- synchronous and lossless, the paper's semantics
    -- and every leg reaches it through one falsy check, the same pattern as
    ``if self._observers``.  Per message the order is: NAT inbound block
    (before accounting, like an offline peer) -> byte accounting -> partition
    cut drop -> base loss roll -> degraded-link loss roll -> base delay +
    degraded-link delay; a due envelope that would cross an active cut is
    held until the heal cycle.  Tests replace ``conditions`` with scripted
    fakes; nothing else about the wire is pluggable.
    """

    def __init__(
        self,
        loss_rate: float = 0.0,
        delay_cycles: int = 0,
        partition: Optional[PartitionSpec] = None,
        asymmetry: Optional[AsymmetrySpec] = None,
        seed: int = 0,
    ) -> None:
        self.conditions: Tuple[Condition, ...] = build_conditions(
            loss_rate, delay_cycles, partition, asymmetry, seed
        )
        self._network: Optional["Network"] = None
        self._total_bytes = None
        #: absolute global cycle -> envelopes due at that cycle (FIFO).
        self._queue: Dict[int, List[Envelope]] = {}
        #: Passive observers notified of every wire event (see WireEvent).
        self._observers: List[TransportObserver] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Bind to a network (called by :class:`Network.__init__`).

        The size model lives in :mod:`repro.gossip.sizes` (the gossip layer
        legitimately depends on the simulator below it); resolving it here at
        attach time rather than at module import keeps the simulator package
        importable on its own and avoids a load-order cycle with the sizes
        module, which imports the message catalogue at its top level.
        """
        from ..gossip.sizes import total_bytes

        self._network = network
        self._total_bytes = total_bytes
        for condition in self.conditions:
            condition.attach(network)

    def condition(self, kind: Type[ConditionT]) -> Optional[ConditionT]:
        """The attached condition of class ``kind``, or ``None``."""
        for condition in self.conditions:
            if isinstance(condition, kind):
                return condition
        return None

    # -- observation ----------------------------------------------------------

    def add_observer(self, observer: TransportObserver) -> None:
        """Register a passive observer of every wire event."""
        self._observers.append(observer)

    def _notify(
        self,
        op: str,
        sender: int,
        receiver: int,
        message: Message,
        status: str,
        accounted: bool,
        query_id: Optional[int],
    ) -> None:
        event = WireEvent(op, sender, receiver, message, status, accounted, query_id)
        for observer in self._observers:
            observer(event)

    # -- condition evaluation (reached only with a non-empty tuple) -----------

    def _inbound_blocked(self, sender: int, receiver: int) -> bool:
        for condition in self.conditions:
            if condition.blocks_inbound(sender, receiver):
                return True
        return False

    def _dropped(self, message: Message, sender: int, receiver: int) -> bool:
        for condition in self.conditions:
            if condition.drops(message, sender, receiver):
                return True
        return False

    def _intercept(
        self,
        op: str,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int],
        expects_reply: bool,
    ) -> Optional[str]:
        """Drop or defer a freshly accounted message; ``None`` lets it through."""
        status = None
        if self._dropped(message, sender, receiver):
            status = DROPPED
        else:
            delay = 0
            for condition in self.conditions:
                delay += condition.delay(message, sender, receiver)
            if delay > 0:
                self._enqueue(Envelope(sender, receiver, message, query_id, expects_reply), delay)
                status = DEFERRED
        if status is not None and self._observers:
            self._notify(op, sender, receiver, message, status, True, query_id)
        return status

    # -- sending --------------------------------------------------------------

    def request(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
    ) -> Dispatch:
        """Round-trip send: deliver ``message`` and return the reply.

        A deferred request is queued whole; its reply will eventually reach
        the sender through :meth:`drain` as a one-way message.
        """
        handler = getattr(self._network.try_contact(receiver), "handle_message", None)
        conditions = self.conditions
        if handler is None or (conditions and self._inbound_blocked(sender, receiver)):
            if self._observers:
                self._notify(OP_REQUEST, sender, receiver, message, UNREACHABLE, False, query_id)
            return _UNREACHABLE_DISPATCH
        self.account(sender, receiver, message, query_id)
        if conditions:
            status = self._intercept(OP_REQUEST, sender, receiver, message, query_id, True)
            if status is not None:
                return _DROPPED_DISPATCH if status == DROPPED else _DEFERRED_DISPATCH
        reply = handler(Envelope(sender, receiver, message, query_id, True))
        if reply is None:
            if self._observers:
                self._notify(OP_REQUEST, sender, receiver, message, DELIVERED, True, query_id)
            return _DELIVERED_SILENT_DISPATCH
        self.account(receiver, sender, reply, query_id)
        if conditions and self._dropped(reply, receiver, sender):
            # The receiver DID process the request; only its answer is lost.
            # Distinguished from DROPPED so callers do not retry work the
            # other side already performed.
            if self._observers:
                self._notify(OP_REQUEST, sender, receiver, message, REPLY_DROPPED, True, query_id)
                self._notify(OP_REPLY, receiver, sender, reply, DROPPED, True, query_id)
            return _REPLY_DROPPED_DISPATCH
        if self._observers:
            self._notify(OP_REQUEST, sender, receiver, message, DELIVERED, True, query_id)
            self._notify(OP_REPLY, receiver, sender, reply, DELIVERED, True, query_id)
        return Dispatch(DELIVERED, reply)

    def send(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
        *,
        over_open_connection: bool = False,
    ) -> str:
        """One-way, fire-and-forget send; returns the dispatch status.

        ``over_open_connection`` marks the reply to a drained round-trip: it
        rides the connection its receiver opened, so an inbound block (NAT)
        does not apply to it.  Loss, delay and cuts still do.
        """
        handler = getattr(self._network.try_contact(receiver), "handle_message", None)
        conditions = self.conditions
        if handler is None or (
            conditions
            and not over_open_connection
            and self._inbound_blocked(sender, receiver)
        ):
            if self._observers:
                self._notify(OP_SEND, sender, receiver, message, UNREACHABLE, False, query_id)
            return UNREACHABLE
        self.account(sender, receiver, message, query_id)
        if conditions:
            status = self._intercept(OP_SEND, sender, receiver, message, query_id, False)
            if status is not None:
                return status
        handler(Envelope(sender, receiver, message, query_id, False))
        if self._observers:
            self._notify(OP_SEND, sender, receiver, message, DELIVERED, True, query_id)
        return DELIVERED

    # -- deferred delivery ----------------------------------------------------

    def pending_count(self) -> int:
        """Number of in-flight (delayed) envelopes."""
        if not self._queue:
            return 0
        return sum(len(batch) for batch in self._queue.values())

    def drain(self) -> int:
        """Deliver every queued envelope now due; returns the count delivered.

        Called by the engine at the start of each cycle, after scheduled
        events (so churn applies first: a message to a node that departed
        while it was in flight is simply lost -- its bytes were already
        spent).  An envelope whose endpoints sit on opposite sides of an
        active partition cut stays in flight until the heal cycle.  Replies
        to deferred round-trips are routed back through :meth:`send`, over
        the connection the initiator opened, and may themselves be dropped
        or delayed.
        """
        if not self._queue:
            return 0
        now = self._network.current_cycle
        due = sorted(cycle for cycle in self._queue if cycle <= now)
        observers = self._observers
        delivered = 0
        for cycle in due:
            for envelope in self._queue.pop(cycle):
                sender, receiver, message, query_id, expects_reply = envelope
                handler = getattr(
                    self._network.try_contact(receiver), "handle_message", None
                )
                if handler is None:
                    if observers:
                        self._notify(OP_DRAIN, sender, receiver, message, LOST, False, query_id)
                    continue
                hold = max((condition.hold(envelope) for condition in self.conditions), default=0)
                if hold > 0:
                    # The bytes were spent once, at send time; the envelope
                    # becomes due again when the condition lifts.
                    self._queue.setdefault(now + hold, []).append(envelope)
                    if observers:
                        self._notify(OP_DRAIN, sender, receiver, message, DEFERRED, False, query_id)
                    continue
                delivered += 1
                if observers:
                    self._notify(OP_DRAIN, sender, receiver, message, DELIVERED, False, query_id)
                reply = handler(envelope)
                if reply is not None and expects_reply:
                    self.send(
                        receiver, sender, reply, query_id=query_id, over_open_connection=True
                    )
        return delivered

    def _enqueue(self, envelope: Envelope, delay: int) -> None:
        due = self._network.current_cycle + delay
        self._queue.setdefault(due, []).append(envelope)

    # -- accounting -----------------------------------------------------------

    def account(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int],
    ) -> None:
        """The single byte-accounting hook every message passes through.

        Control messages (``kind`` is ``None``) and failure replies carrying
        a ``None`` payload are free; everything else is priced at send time
        by :func:`repro.gossip.sizes.total_bytes`.  The service runtime
        accounts its frames through this same hook.
        """
        kind = message.kind
        if kind is not None and message.accountable:
            network = self._network
            network.stats.record(
                network.current_cycle, sender, receiver, kind,
                self._total_bytes(message), query_id,
            )


#: The condition-free :class:`Transport` under its historical name.
DirectTransport = Transport
