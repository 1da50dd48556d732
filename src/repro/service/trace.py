"""Recording and auditing service-mode wire traffic.

A live service run emits the same :class:`~repro.simulator.transport.WireEvent`
stream the simulator's transports emit, so the simtest invariant checkers
audit a service run without knowing it was not a simulation.
:class:`ServiceTrace` accumulates the events in memory (and can persist
them as JSON Lines in the codec's JSON message form -- the CI smoke job
reloads the file and uploads it on failure); :func:`check_trace` replays
a trace through the checkers that make sense without a fuzz spec: byte
conservation, view bounds, replica freshness and the query lifecycle rules.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..simtest.invariants import (
    ByteConservationChecker,
    InvariantChecker,
    QueryLifecycleChecker,
    ReplicaFreshnessChecker,
    ViewBoundsChecker,
)
from ..simulator.transport import WireEvent
from .codec import WireCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..p3q.protocol import P3QSimulation


class ServiceTrace:
    """In-memory WireEvent recording with JSON Lines persistence."""

    def __init__(self) -> None:
        self.events: List[WireEvent] = []
        self._codec = WireCodec()

    def record(self, event: WireEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

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
        return len(self.events)

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
                trace.events.append(
                    WireEvent(
                        op=obj["op"],
                        sender=obj["s"],
                        receiver=obj["r"],
                        message=codec.decode_message(obj["m"]),
                        status=obj["st"],
                        accounted=obj["ac"],
                        query_id=obj["q"],
                    )
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
