"""Random peer sampling: the bottom layer of the lazy gossip.

Each cycle, a node picks one member of its random view uniformly at random
and the two swap :class:`~repro.simulator.transport.DigestAdvertisement`
messages (r digests each, plus their own descriptor so fresh information
keeps entering the system); each keeps a uniformly random subset of size r
of the union.  This is the classical gossip-based peer-sampling service of
Jelasity et al., which keeps the overlay connected even when personal
networks would otherwise partition into disjoint interest groups, and
continuously supplies candidate neighbours that the similarity layer has
not discovered yet.

The swap is a transport round-trip: the initiator's advertisement travels
as a request and the partner's view comes back as the reply.  Under a
latency transport the exchange may be deferred, in which case the partner
merges when the engine drains the queue and the initiator merges when the
reply message eventually arrives (:meth:`P3QNode.handle_message`).

The protocol is sans-io: :meth:`run_cycle_effects` yields
:mod:`repro.simulator.effects` and never touches the network, so the cycle
engine (:func:`~repro.simulator.effects.drive`) and the asyncio service
runtime execute the same core.
"""

from __future__ import annotations

from typing import Optional

from ..simulator.effects import ProbeEffect, RequestEffect, WireEffects
from ..simulator.transport import VIEW_RANDOM, DigestAdvertisement, Envelope


class PeerSamplingProtocol:
    """One-cycle behaviour of the random peer-sampling layer."""

    def run_cycle_effects(self, initiator) -> WireEffects:
        """Run one peer-sampling exchange initiated by ``initiator``.

        Yields wire effects.  Returns the partner's id, or ``None`` when no
        exchange happened (empty view, partner offline, or message lost --
        the slot is simply lost for this cycle, as in the paper's churn
        experiments).
        """
        partner_id = initiator.random_view.random_partner(initiator.rng)
        if partner_id is None:
            return None
        if not (yield ProbeEffect(partner_id)):
            return None

        sent = tuple(initiator.random_view.digests()) + (initiator.own_digest(),)
        dispatch = yield RequestEffect(
            initiator.node_id,
            partner_id,
            DigestAdvertisement(digests=sent, view=VIEW_RANDOM),
        )
        if dispatch.reply is not None:
            initiator.random_view.merge(dispatch.reply.digests, initiator.rng)
            return partner_id
        # A deferred exchange still used the slot; anything else lost it.
        return partner_id if dispatch.deferred else None

    # -- receiving side -------------------------------------------------------

    def handle_advertisement(self, receiver, envelope: Envelope) -> Optional[DigestAdvertisement]:
        """Merge an incoming advertisement; reply with our view when asked.

        The reply is built *before* merging, exactly like the seed computed
        both directions of the swap before either side updated its view.
        """
        reply: Optional[DigestAdvertisement] = None
        if envelope.expects_reply:
            digests = tuple(receiver.random_view.digests()) + (receiver.own_digest(),)
            reply = DigestAdvertisement(digests=digests, view=VIEW_RANDOM)
        receiver.random_view.merge(envelope.message.digests, receiver.rng)
        return reply
