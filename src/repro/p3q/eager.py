"""Eager-mode query gossip (paper Algorithms 2 and 3).

The eager mode runs on demand, at a higher frequency than the lazy mode, and
only among the users reached by a query.  Its job is to collect, through the
personal networks, the contributions of the neighbours whose profiles the
querier does not store:

* a node holding a non-empty remaining list for a query initiates one gossip
  per cycle, preferring the remaining-list member of its personal network
  with the oldest timestamp (and falling back to a random remaining-list
  member); the list travels as a
  :class:`~repro.simulator.transport.QueryForward` message;
* the destination removes from the list every user whose profile it stores
  (including itself), ships the corresponding partial result *directly* to
  the querier as a :class:`~repro.simulator.transport.QueryResult`, keeps a
  ``1-α`` share of what is left and returns the ``α`` share in a
  :class:`~repro.simulator.transport.RemainingReturn`;
* both partners also refresh their personal networks exactly as in the lazy
  mode, which is why eager gossip doubles as a freshness wave.

Transport semantics: under the condition-free
:class:`~repro.simulator.transport.Transport` (the default) the forward
round-trip is synchronous and the seed's behaviour is reproduced exactly.
A lossy transport may drop the forward (the initiator keeps the list and
retries next cycle -- the sender-side timeout of a real gossip), the return
(the destination keeps its share but the α share is lost; replicated
profiles elsewhere keep recall from collapsing -- the transport reports
``REPLY_DROPPED`` so the initiator does not re-forward a list the
destination already processed) or the partial result (pure recall loss).  A latency transport
defers the whole forward: the initiator hands off responsibility (empty
list) and the α share merges back whenever the ``RemainingReturn`` arrives.

Like the lazy layer, the protocol is sans-io (:mod:`repro.simulator.effects`):
both runtimes drive the same ``*_effects`` generators.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, List, Optional, Protocol, Sequence

from ..data.queries import Query
from ..simulator.effects import RequestEffect, SendEffect, WireEffects
from ..simulator.transport import REPLY_DROPPED, UNREACHABLE, QueryForward, QueryResult
from ..gossip.profile_exchange import LazyExchangeProtocol
from .query import PartialResult
from .scoring import partial_scores


class EagerGossipProtocol:
    """The query-gossip layer shared by every node of a simulation."""

    def __init__(
        self,
        alpha: float = 0.5,
        lazy: Optional[LazyExchangeProtocol] = None,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.alpha = alpha
        self.lazy = lazy or LazyExchangeProtocol()

    # -- destination selection -------------------------------------------------

    def select_destinations(
        self,
        initiator: "EagerParticipant",
        remaining: Sequence[int],
    ) -> List[int]:
        """The order in which to try gossip destinations (Algorithm 3, 4-9).

        Preference goes to remaining-list members that are also personal
        network neighbours, oldest timestamp first; the other remaining-list
        members follow in random order.
        """
        in_network = [uid for uid in remaining if uid in initiator.personal_network]
        ordered: List[int] = []
        if in_network:
            entries = sorted(
                (initiator.personal_network.entry(uid) for uid in in_network),
                key=lambda e: (-e.timestamp, -e.score, e.user_id),
            )
            ordered.extend(entry.user_id for entry in entries)
        preferred = set(ordered)
        others = [uid for uid in remaining if uid not in preferred]
        initiator.rng.shuffle(others)
        ordered.extend(others)
        return ordered

    # -- one gossip step --------------------------------------------------------

    def gossip_query_effects(
        self,
        initiator: "EagerParticipant",
        query: Query,
        remaining: Sequence[int],
        cycle: int,
    ) -> WireEffects:
        """One eager gossip initiated by ``initiator`` for ``query``.

        The forward goes to each candidate of :meth:`select_destinations` in
        turn until one is not ``UNREACHABLE``: a departed or NAT-blocked
        candidate is skipped, which is how churn slows the processing down
        without deadlocking it.  Only the destination reached has its
        personal-network timestamp reset.

        Yields wire effects.  Returns the initiator's new remaining list: the
        α share handed back by the destination when the forward was
        delivered; the list unchanged when no destination was reachable or
        the *forward* was lost (the cycle is lost, the initiator retries);
        the empty list when a latency transport deferred the forward
        (responsibility is in flight and the return will merge back on
        arrival) or when the forward was processed but the *return* was lost
        on the wire (the destination owns its kept share; the α share is
        gone -- retrying would duplicate work the destination already
        performed).
        """
        remaining = list(remaining)
        forward = QueryForward(query=query, remaining=tuple(remaining), cycle=cycle)
        for destination_id in self.select_destinations(initiator, remaining):
            dispatch = yield RequestEffect(
                initiator.node_id, destination_id, forward, query_id=query.query_id
            )
            if dispatch.status != UNREACHABLE:
                break
        else:
            return remaining
        if destination_id in initiator.personal_network:
            initiator.personal_network.mark_gossiped(destination_id)
        if dispatch.deferred or dispatch.status == REPLY_DROPPED:
            return []
        if dispatch.reply is None:
            return remaining

        returned = list(dispatch.reply.remaining)
        # "Maintain personal network as in lazy mode" (Algorithm 3, 12/24).
        yield from self.lazy.exchange_effects(initiator, destination_id)
        return returned

    # -- destination-side processing --------------------------------------------

    def process_at_destination_effects(
        self,
        destination: "EagerParticipant",
        query: Query,
        remaining: Sequence[int],
        cycle: int,
    ) -> WireEffects:
        """Destination-side handling (Algorithm 3, lines 17-23).

        Yields wire effects.  Returns ``(returned_list, kept_list)``: the
        share sent back to the initiator and the share the destination takes
        responsibility for.  Also computes and ships the partial result to
        the querier.

        The contribution bookkeeping (read ``contributed_profiles``, mark,
        ship) runs without an intervening ``yield``, so concurrent forwards
        handled by the asyncio runtime cannot double-contribute a profile.
        """
        remaining = list(remaining)
        already = destination.contributed_profiles(query.query_id)
        found: List[int] = []
        left: List[int] = []
        for user_id in remaining:
            profile = destination.profile_for_query(user_id)
            if profile is not None and user_id not in already:
                found.append(user_id)
            elif profile is not None:
                # Profile already contributed for this query by this node:
                # drop it from the list without re-counting it.
                continue
            else:
                left.append(user_id)

        if found:
            profiles = [destination.profile_for_query(uid) for uid in found]
            scores = partial_scores(profiles, query)
            destination.mark_contributed(query.query_id, found)
            yield from self._send_partial_result_effects(
                destination, query, scores, found, cycle
            )

        keep_count = int((1.0 - self.alpha) * len(left))
        shuffled = list(left)
        destination.rng.shuffle(shuffled)
        kept = sorted(shuffled[:keep_count])
        returned = sorted(set(left) - set(kept))
        return returned, kept

    def _send_partial_result_effects(
        self,
        sender: "EagerParticipant",
        query: Query,
        scores: Dict[int, float],
        contributors: Sequence[int],
        cycle: int,
    ) -> WireEffects:
        partial = PartialResult(
            query_id=query.query_id,
            sender=sender.node_id,
            scores=dict(scores),
            contributors=tuple(sorted(contributors)),
            cycle=cycle,
        )
        yield SendEffect(
            sender.node_id,
            query.querier,
            QueryResult(partial=partial),
            query_id=query.query_id,
        )
        return None


class EagerParticipant(Protocol):
    """What :class:`EagerGossipProtocol` expects from a node.

    The concrete implementation is :class:`repro.p3q.node.P3QNode`; tests
    provide minimal fakes.
    """

    node_id: int
    personal_network: "object"
    rng: random.Random

    def profile_for_query(self, user_id: int):
        """A profile this node can contribute to a query, or ``None``."""

    def contributed_profiles(self, query_id: int) -> AbstractSet[int]:
        """Users whose profiles this node already scored for ``query_id``."""

    def mark_contributed(self, query_id: int, user_ids: Sequence[int]) -> None:
        """Record that ``user_ids`` were scored for ``query_id``."""
