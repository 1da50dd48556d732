"""Wire effects: the sans-io boundary between protocol logic and a runtime.

The protocol modules (:mod:`repro.gossip.peer_sampling`,
:mod:`repro.gossip.profile_exchange`, :mod:`repro.p3q.eager`) are written as
*generators* that yield one of the effect types below whenever they need the
outside world and receive the outcome back at the ``yield``:

======================  ==================================  ============
effect                  meaning                             sent back
======================  ==================================  ============
:class:`RequestEffect`  round-trip send (request + reply)   ``Dispatch``
:class:`SendEffect`     one-way, fire-and-forget send       status str
:class:`ProbeEffect`    "is this peer reachable right now"  ``bool``
======================  ==================================  ============

A generator never touches the :class:`~repro.simulator.network.Network`, the
transport or the engine, so both runtimes drive the same protocol code
through one stepper, :func:`advance`: a one-way send goes through the
runtime's send call and a probe through its liveness table.  Only a round
trip is carried differently.  The cycle engine's :func:`drive` answers it in
place with a synchronous transport call (the exact calls in the exact order
the protocol makes them, pinned by the transport golden fixture); the
asyncio runtime (:mod:`repro.service.runtime`) awaits the reply over a
datagram wire.  Nothing a generator is told reads another node's memory: a
protocol that needs a peer's digest uses the copy it holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Tuple

from .transport import Dispatch, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

#: The type of a sans-io protocol operation: yields effects, receives their
#: outcomes, returns the operation's result.
WireEffects = Generator["Effect", Any, Any]


class Effect:
    """Base of the wire-effect vocabulary."""

    __slots__ = ()


class RequestEffect(Effect):
    """A round-trip send; the driver answers with a ``Dispatch``."""

    __slots__ = ("sender", "receiver", "message", "query_id")

    def __init__(
        self, sender: int, receiver: int, message: Message, query_id: Optional[int] = None
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.query_id = query_id


class SendEffect(Effect):
    """A one-way send; the driver answers with the dispatch status string."""

    __slots__ = ("sender", "receiver", "message", "query_id")

    def __init__(
        self, sender: int, receiver: int, message: Message, query_id: Optional[int] = None
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.query_id = query_id


class ProbeEffect(Effect):
    """A reachability check; the driver answers ``True`` when the peer is up."""

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


def advance(
    gen: WireEffects,
    result: Any,
    send: Callable[..., str],
    is_online: Callable[[int], bool],
    request: Optional[Callable[..., Dispatch]] = None,
) -> Tuple[bool, Any]:
    """Send ``result`` into ``gen`` and answer its effects until it stops.

    One-way sends go through ``send`` and probes through ``is_online``.  A
    round trip is answered in place through ``request`` when one is given;
    without one the stepper returns ``(False, effect)`` at the
    :class:`RequestEffect`, for the caller to answer by a later call.
    Returns ``(True, value)`` when the generator finished.
    """
    try:
        effect = gen.send(result)
        while True:
            etype = type(effect)
            if etype is RequestEffect:
                if request is None:
                    return False, effect
                result = request(
                    effect.sender, effect.receiver, effect.message, query_id=effect.query_id
                )
            elif etype is SendEffect:
                result = send(
                    effect.sender, effect.receiver, effect.message, query_id=effect.query_id
                )
            elif etype is ProbeEffect:
                result = is_online(effect.node_id)
            else:
                raise TypeError(f"unknown wire effect {effect!r}")
            effect = gen.send(result)
    except StopIteration as stop:
        return True, stop.value


def drive(gen: WireEffects, network: "Network"):
    """Run a wire-effect generator against a live simulator network.

    The cycle engine's side of the sans-io split: every round trip is a
    synchronous transport call answered in place.
    """
    transport = network.transport
    return advance(gen, None, transport.send, network.is_online, transport.request)[1]
