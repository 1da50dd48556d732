"""Recording and auditing service-mode wire traffic.

A live service run emits the same :class:`~repro.simulator.transport.WireEvent`
stream the simulator's transports emit, so the simtest invariant checkers
audit a service run without knowing it was not a simulation.
:class:`ServiceTrace` accumulates the events in memory -- as typed columns,
one object per distinct lazy-exchange message and the packed wire bodies of
the rest, because a deployment records
one event per wire action for as long as it is up: ``events`` is a
read-only view that builds each ``WireEvent`` as it is iterated -- and can
persist them as a binary trace file of length-prefixed
records, each message in the wire codec's own body form (the CI smoke job
reloads the file and uploads it on failure); :func:`check_trace` replays
a trace through the checkers that make sense without a fuzz spec: byte
conservation, view bounds, replica freshness and the query lifecycle rules.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Union

from ..simtest.invariants import (
    ByteConservationChecker,
    InvariantChecker,
    QueryLifecycleChecker,
    ReplicaFreshnessChecker,
    ViewBoundsChecker,
)
from ..simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    LOST,
    OP_DRAIN,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    REPLY_DROPPED,
    UNREACHABLE,
    CommonItemsReply,
    CommonItemsRequest,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    FullProfilePush,
    FullProfileRequest,
    Message,
    WireEvent,
)
from .codec import BinaryWireCodec, _frame, _read_byte, _read_sv, _write_sv, split_frames

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..p3q.protocol import P3QSimulation


#: The flags byte of one recorded event: op in bits 0-1, status in bits 2-4,
#: ``accounted`` in bit 5, "carries a query id" in bit 6 (so ``None`` and
#: ``0`` stay apart without a sentinel in the id column).
_OPS = (OP_REQUEST, OP_REPLY, OP_SEND, OP_DRAIN)
_STATUSES = (DELIVERED, DROPPED, REPLY_DROPPED, DEFERRED, UNREACHABLE, LOST)
_OP_BITS = {op: index for index, op in enumerate(_OPS)}
_STATUS_BITS = {status: index << 2 for index, status in enumerate(_STATUSES)}
_ACCOUNTED = 1 << 5
_HAS_QUERY = 1 << 6

#: The messages a trace records as the first equal one it holds: the lazy
#: exchange's, which a converged overlay keeps repeating.  Every other
#: message -- a random-view swap, a query's forwards, returns and results,
#: which rarely repeat (a swap is a fresh random sample of descriptor
#: tuples, each forward carries its own cycle, and a ``QueryResult``
#: cannot be hashed: its ``PartialResult`` is mutable) -- is kept as its
#: wire :class:`BinaryWireCodec` body, a fraction of the objects it
#: decodes to.
_MERGED = frozenset({
    DigestOffer, DigestPullRequest, DigestPullReply,
    CommonItemsRequest, CommonItemsReply, FullProfileRequest, FullProfilePush,
})

#: Bound of one trace's table of distinct messages: shed whole when passed
#: (a later equal message then starts a new shared object; recording a
#: message as given is always correct), so traffic that never repeats adds
#: at most this many entries (40 B each).
_MAX_DISTINCT_MESSAGES = 65536


def _event(flags: int, sender: int, receiver: int, message: Message, query_id: int) -> WireEvent:
    return WireEvent(
        _OPS[flags & 3],
        sender,
        receiver,
        message,
        _STATUSES[(flags >> 2) & 7],
        bool(flags & _ACCOUNTED),
        query_id if flags & _HAS_QUERY else None,
    )


class _EventsView:
    """Read-only, sized iterable of ``WireEvent`` over a trace's columns.

    Every iteration builds its :class:`WireEvent` objects afresh (nothing is
    cached), so holding the view costs nothing per event; a message kept
    as a body is decoded into a new, equal message each time.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "ServiceTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._flags)

    def __iter__(self) -> Iterator[WireEvent]:
        trace = self._trace
        decode = BinaryWireCodec().decode_message
        messages = (
            decode(message) if type(message) is bytes else message
            for message in trace._recorded()
        )
        return map(
            _event,
            trace._flags,
            trace._senders,
            trace._receivers,
            messages,
            trace._query_ids,
        )


class ServiceTrace:
    """In-memory wire-event recording with binary trace-file persistence.

    Columnar: one event is a flags byte, two 32-bit node ids, a 64-bit
    query id and a reference to the message it carried (~25 B against the
    112 B of a ``WireEvent`` tuple in a list); :attr:`events` is the
    view of ``WireEvent`` everything reads.

    Equal lazy-exchange messages are recorded as one object: a converged overlay keeps
    re-sending the same digests and asking the same step-2 questions, so
    the message column references the first equal message the trace saw
    (message equality is dataclass equality: same class, equal fields,
    digest filters and profiles by identity, so merged messages price and
    encode the same).  Only the lazy exchange's messages are merged
    (:data:`_MERGED`); any other is kept as its wire body, the
    bytes :meth:`dump` writes, packed back to back in one buffer (~20 B
    for a query's forward, return or result, plus an 8-byte end offset),
    and decoded when :attr:`events` is read.
    """

    def __init__(self) -> None:
        self._flags = bytearray()
        self._senders = array("i")
        self._receivers = array("i")
        self._query_ids = array("q")
        #: A merged message object, or ``None`` for a message kept as the
        #: next body of ``_bodies``.
        self._messages: List[Optional[Message]] = []
        #: Off-link bodies back to back, and where each one ends.
        self._bodies = bytearray()
        self._body_ends = array("q")
        #: message -> the first equal message recorded (shed at
        #: :data:`_MAX_DISTINCT_MESSAGES`).
        self._distinct: Dict[Message, Message] = {}
        #: Encodes the bodies kept (the codec is stateless).
        self._codec = BinaryWireCodec()

    @property
    def events(self) -> _EventsView:
        """The recorded events, in order, each built on access."""
        return _EventsView(self)

    def append(
        self,
        op: str,
        sender: int,
        receiver: int,
        message: Message,
        status: str,
        accounted: bool,
        query_id: Optional[int],
    ) -> None:
        """Record one wire action (the fields of a :class:`WireEvent`); an
        equal lazy-exchange message already recorded stands in for
        ``message``.

        Any other message is kept as its wire body, encoded here.  An
        unregistered message type raises ``TypeError`` here, before
        anything is recorded.
        """
        merged = type(message) in _MERGED
        if not merged:
            message = self._codec.encode_message(message)
        flags = _OP_BITS[op] | _STATUS_BITS[status]
        if accounted:
            flags |= _ACCOUNTED
        if query_id is None:
            query_id = 0
        else:
            flags |= _HAS_QUERY
        recorded = len(self._flags)
        try:
            self._senders.append(sender)
            self._receivers.append(receiver)
            self._query_ids.append(query_id)
        except OverflowError:
            # An id wider than its column: keep the columns in step.
            del self._senders[recorded:], self._receivers[recorded:]
            raise
        self._flags.append(flags)
        if merged:
            message = self._distinct.setdefault(message, message)
            if len(self._distinct) > _MAX_DISTINCT_MESSAGES:
                self._distinct.clear()
        else:
            self._bodies += message
            self._body_ends.append(len(self._bodies))
            message = None
        self._messages.append(message)

    def _recorded(self) -> Iterator[Union[Message, bytes]]:
        """Each event's message, in order: the merged object, or its body."""
        bodies, ends = self._bodies, iter(self._body_ends)
        start = 0
        for message in self._messages:
            if message is None:
                end = next(ends)
                yield bytes(bodies[start:end])
                start = end
            else:
                yield message

    def __len__(self) -> int:
        return len(self._flags)

    # -- persistence ----------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write one length-prefixed record per event; returns the number written.

        A record body is the event's flags byte, sender and receiver as
        zigzag varints, the query id likewise when the flags say it has
        one, then the message as :class:`BinaryWireCodec` encodes it: every
        digest a full row, so the file holds each message exactly, a forged
        row under an honest ``(user, version)`` too.
        """
        codec = BinaryWireCodec()
        with open(path, "wb") as handle:
            for flags, sender, receiver, query_id, message in zip(
                self._flags, self._senders, self._receivers, self._query_ids, self._recorded()
            ):
                body = bytearray((flags,))
                _write_sv(body, sender)
                _write_sv(body, receiver)
                if flags & _HAS_QUERY:
                    _write_sv(body, query_id)
                body += message if type(message) is bytes else codec.encode_message(message)
                handle.write(_frame(body))
        return len(self)

    @classmethod
    def load(cls, path: str) -> "ServiceTrace":
        """Read a file :meth:`dump` wrote; a malformed record or a partial
        one at the end raises ``ValueError``."""
        with open(path, "rb") as handle:
            bodies, leftover = split_frames(handle.read())
        if leftover:
            raise ValueError(f"{path}: {len(leftover)} bytes after the last whole record")
        trace = cls()
        codec = BinaryWireCodec()
        for body in bodies:
            flags, offset = _read_byte(body, 0, "trace record: empty body")
            if flags >> 7 or (flags >> 2) & 7 >= len(_STATUSES):
                raise ValueError(f"bad trace record flags {flags:#04x}")
            sender, offset = _read_sv(body, offset)
            receiver, offset = _read_sv(body, offset)
            query_id = 0
            if flags & _HAS_QUERY:
                query_id, offset = _read_sv(body, offset)
            message = codec.decode_message(body[offset:])
            try:
                trace.append(*_event(flags, sender, receiver, message, query_id))
            except OverflowError as error:
                raise ValueError(f"trace record id out of range: {error}") from error
        return trace


#: The spec-free checker set a recorded service trace is audited with.
TRACE_CHECKERS = (
    ByteConservationChecker,
    ViewBoundsChecker,
    ReplicaFreshnessChecker,
    QueryLifecycleChecker,
)


def check_trace(
    events: Iterable[WireEvent],
    simulation: "P3QSimulation",
    checkers: Optional[List[InvariantChecker]] = None,
) -> List[str]:
    """Audit a recorded run; returns the names of the checkers that passed.

    Binds each checker to the live simulation the service ran over (the
    byte-conservation checker compares against its stats collector, the
    view/replica checkers walk its nodes), replays every recorded event,
    then fires the end-of-run hooks.  Raises
    :class:`~repro.simtest.invariants.InvariantViolation` on the first
    failure, exactly like a simtest run.
    """
    from ..simtest.runner import RunContext

    active = checkers if checkers is not None else [cls() for cls in TRACE_CHECKERS]
    ctx = RunContext(spec=None, simulation=simulation)
    for checker in active:
        checker.bind(ctx)
    for event in events:
        for checker in active:
            checker.on_wire_event(event)
    for checker in active:
        checker.on_finish()
    return [checker.name for checker in active]
