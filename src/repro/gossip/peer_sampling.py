"""Random peer sampling: the bottom layer of the lazy gossip.

Each cycle, a node picks one member of its random view uniformly at random
and the two swap :class:`~repro.simulator.transport.DigestAdvertisement`
messages: the r ``(user_id, version)`` descriptors of its view plus its
own, so that fresh information keeps entering the system, less what the
partner would drop unread.  As in Cyclon, a node is never sent its own
descriptor; and the reply leaves out each descriptor whose user the
request carried at the same or a newer version, unless the delay queue
held the request (its descriptors then describe the initiator's view as it
was cycles ago).  Each keeps a uniformly random subset of size r of the
union.  Like the node descriptors of Jelasity et al., a swap carries no
digest row (8 bytes a member, not 2 504): the random-view refresh of
:mod:`repro.gossip.profile_exchange` pulls the row of a member it has not
evaluated from the member itself.
This is the classical gossip-based peer-sampling service of Jelasity et
al., which keeps the overlay connected even when personal networks would
otherwise partition into disjoint interest groups, and continuously
supplies candidate neighbours that the similarity layer has not discovered
yet.

The swap is a transport round-trip: the initiator's advertisement travels
as a request and the partner's view comes back as the reply.  Under a
latency transport the exchange may be deferred, in which case the partner
merges when the engine drains the queue and the initiator merges when the
reply message eventually arrives (:meth:`P3QNode.handle_message`).

The protocol is sans-io (:mod:`repro.simulator.effects`): both runtimes
drive the same :meth:`run_cycle_effects`.
"""

from __future__ import annotations

from typing import Optional

from ..simulator.effects import RequestEffect, WireEffects
from ..simulator.transport import DigestAdvertisement, Envelope


class PeerSamplingProtocol:
    """One-cycle behaviour of the random peer-sampling layer."""

    def run_cycle_effects(self, initiator) -> WireEffects:
        """Run one peer-sampling exchange initiated by ``initiator``.

        Yields wire effects.  Returns the partner's id, or ``None`` when no
        exchange happened (empty view, or the swap came back unreachable or
        lost -- the slot is simply lost for this cycle, as in the paper's
        churn experiments).
        """
        partner_id = initiator.random_view.random_partner(initiator.rng)
        if partner_id is None:
            return None
        sent = initiator.random_view.descriptors()
        sent.append(initiator.own_descriptor())
        dispatch = yield RequestEffect(
            initiator.node_id,
            partner_id,
            DigestAdvertisement.to(partner_id, sent),
        )
        if dispatch.reply is not None:
            initiator.random_view.merge(dispatch.reply.descriptors, initiator.rng)
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
            descriptors = receiver.random_view.descriptors()
            descriptors.append(receiver.own_descriptor())
            shown = () if envelope.deferred else envelope.message.descriptors
            reply = DigestAdvertisement.to(envelope.sender, descriptors, shown)
        receiver.random_view.merge(envelope.message.descriptors, receiver.rng)
        return reply
