"""Recording and auditing service-mode wire traffic.

A live service run emits the same :class:`~repro.simulator.transport.WireEvent`
stream the simulator's transports emit, so the simtest invariant checkers
audit a service run without knowing it was not a simulation.
:class:`ServiceTrace` accumulates the events in memory -- as typed columns,
because a deployment records one per wire action for as long as it is up:
``events`` is a read-only view that builds each ``WireEvent`` as it is
iterated -- and can persist them as JSON Lines in the codec's JSON message form
(the CI smoke job reloads the file and uploads it on failure);
:func:`check_trace` replays
a trace through the checkers that make sense without a fuzz spec: byte
conservation, view bounds, replica freshness and the query lifecycle rules.
"""

from __future__ import annotations

import json
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional

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
    Message,
    WireEvent,
)
from .codec import WireCodec

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
    cached), so holding the view costs nothing per event.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "ServiceTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._flags)

    def __iter__(self) -> Iterator[WireEvent]:
        trace = self._trace
        return map(
            _event,
            trace._flags,
            trace._senders,
            trace._receivers,
            trace._messages,
            trace._query_ids,
        )


class ServiceTrace:
    """In-memory wire-event recording with JSON Lines persistence.

    Columnar: one event is a flags byte, two 32-bit node ids, a 64-bit
    query id and a reference to the message it carried (~25 B against the
    112 B of a ``WireEvent`` tuple in a list); :attr:`events` is the
    view of ``WireEvent`` everything reads.
    """

    def __init__(self) -> None:
        self._flags = bytearray()
        self._senders = array("i")
        self._receivers = array("i")
        self._query_ids = array("q")
        self._messages: List[Message] = []
        self._codec = WireCodec()

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
        """Record one wire action (the fields of a :class:`WireEvent`)."""
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
        self._messages.append(message)

    def __len__(self) -> int:
        return len(self._flags)

    # -- persistence ----------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write one JSON line per event; returns the number written."""
        codec = self._codec
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(
                    json.dumps(
                        {
                            "op": event.op,
                            "s": event.sender,
                            "r": event.receiver,
                            "st": event.status,
                            "ac": event.accounted,
                            "q": event.query_id,
                            "m": codec.encode_message(event.message),
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
        return len(self)

    @classmethod
    def load(cls, path: str) -> "ServiceTrace":
        trace = cls()
        codec = trace._codec
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                trace.append(
                    op=obj["op"],
                    sender=obj["s"],
                    receiver=obj["r"],
                    message=codec.decode_message(obj["m"]),
                    status=obj["st"],
                    accounted=obj["ac"],
                    query_id=obj["q"],
                )
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
