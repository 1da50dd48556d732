"""Wire effects: the sans-io boundary between protocol logic and a runtime.

The protocol modules (:mod:`repro.gossip.peer_sampling`,
:mod:`repro.gossip.profile_exchange`, :mod:`repro.p3q.eager`) are written as
*generators* that yield one of the effect types below whenever they need the
outside world and receive the outcome back at the ``yield``:

===========================  ==================================  ===========
effect                       meaning                             sent back
===========================  ==================================  ===========
:class:`RequestEffect`       round-trip send (request + reply)   ``Dispatch``
:class:`SendEffect`          one-way, fire-and-forget send       status str
:class:`ProbeEffect`         "is this peer reachable right now"  ``bool``
:class:`PeerDigestEffect`    the subject's current own digest    digest
===========================  ==================================  ===========

A generator never touches the :class:`~repro.simulator.network.Network`, the
transport or the engine -- which is what makes the same protocol code
drivable by two runtimes:

* :func:`drive` executes a generator against a live simulator network,
  issuing the exact transport calls the pre-refactor code made in the exact
  order (the cycle engine stays bit-identical -- pinned by the transport
  golden fixture);
* the asyncio runtime (:mod:`repro.service.runtime`) awaits each effect over
  a datagram wire instead, with timers replacing engine cycles.

:class:`PeerDigestEffect` deserves a note: the cycle engine answers it by
peeking at the subject's live node (she was just contacted, so her current
digest is what the seed used), which a real network cannot do.  The effect
therefore carries the *fallback* digest the caller already holds (the
random-view copy); the asyncio driver answers with that, trading a
possibly-stale version stamp for wire-realism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .transport import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gossip.digest import ProfileDigest
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
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.query_id = query_id


class SendEffect(Effect):
    """A one-way send; the driver answers with the dispatch status string."""

    __slots__ = ("sender", "receiver", "message", "query_id")

    def __init__(
        self,
        sender: int,
        receiver: int,
        message: Message,
        query_id: Optional[int] = None,
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


class PeerDigestEffect(Effect):
    """Ask for the subject's current own digest (see the module docstring)."""

    __slots__ = ("node_id", "fallback")

    def __init__(self, node_id: int, fallback: "ProfileDigest") -> None:
        self.node_id = node_id
        self.fallback = fallback


def drive(gen: WireEffects, network: "Network"):
    """Run a wire-effect generator against a live simulator network.

    This is the cycle engine's side of the sans-io split: every effect maps
    to the same transport / network call the pre-refactor protocol methods
    made inline, in the same order, so a driven generator is bit-identical
    to the code it replaced.
    """
    transport = network.transport
    try:
        effect = next(gen)
        while True:
            etype = type(effect)
            if etype is RequestEffect:
                result = transport.request(
                    effect.sender,
                    effect.receiver,
                    effect.message,
                    query_id=effect.query_id,
                )
            elif etype is SendEffect:
                result = transport.send(
                    effect.sender,
                    effect.receiver,
                    effect.message,
                    query_id=effect.query_id,
                )
            elif etype is ProbeEffect:
                result = network.try_contact(effect.node_id) is not None
            elif etype is PeerDigestEffect:
                result = network.node(effect.node_id).own_digest()
            else:
                raise TypeError(f"unknown wire effect {effect!r}")
            effect = gen.send(result)
    except StopIteration as stop:
        return stop.value
