"""Lazy-mode personal-network maintenance (paper Algorithm 1).

The top layer of the lazy gossip tracks similarity between profiles and
discovers new neighbours.  Its key cost-saving device is the 3-step
exchange, now carried by explicit transport messages:

1. **Digests** -- the partners swap
   :class:`~repro.simulator.transport.DigestAdvertisement` messages carrying
   Bloom-filter digests of (a sample of) the profiles they store.  A digest
   that describes an unchanged, already-known profile, or a user sharing no
   item with the receiver, is dropped immediately.
2. **Common items** -- for the remaining candidates, the receiver sends the
   *provider* (who stores those profiles) a
   :class:`~repro.simulator.transport.CommonItemsRequest` for the tagging
   actions restricted to the items the receiver also tagged, which is
   exactly the information needed to compute the similarity score.
3. **Full profiles** -- only the candidates that enter the receiver's top-c
   (and therefore must be stored locally) have their complete profiles
   transferred (:class:`~repro.simulator.transport.FullProfileRequest` /
   :class:`~repro.simulator.transport.FullProfilePush`).

The same integration routine is reused by the eager mode ("maintain personal
network as in lazy mode", Algorithm 3 lines 12 and 24), so query gossip
doubles as a freshness wave for the personal networks it touches.

All byte accounting happens inside the transport (one hook pricing every
message through :func:`repro.gossip.sizes.total_bytes`); this module never
touches the stats collector.  The steps 2 and 3 sub-requests are synchronous
control round-trips in every transport -- a lossy transport may drop them
(the candidate is simply skipped, like an unavailable provider), but a
latency transport only delays the *top-level* advertisement, never the
sub-requests of an exchange already being processed.

The protocol is sans-io (:mod:`repro.simulator.effects`), and both runtimes
drive the same generators.  The step-2/3 round-trips *nested inside* an
exchange are what forces the generator shape -- a flat "return the outbound
messages" API could not express a handler that needs an answer mid-flight.

This module sits on the hot path of every lazy cycle.  It leans on the
performance layer described in ``docs/ARCHITECTURE.md``: the receiver's item
and action views (``profile.items`` / ``profile.actions``) are per-version
cached frozensets, digest probes read the digest's own wire row and packed
integer against the receiver's cached probe masks
(:meth:`repro.gossip.digest.DigestCache.common_items`), and similarity
scores are C-level set intersections
(:func:`repro.similarity.metrics.overlap_score_from_actions`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..similarity.metrics import overlap_score_from_actions
from ..simulator.effects import ProbeEffect, RequestEffect, WireEffects
from ..simulator.transport import (
    VIEW_PERSONAL,
    CommonItemsRequest,
    DigestAdvertisement,
    Envelope,
    FullProfileRequest,
)
from .digest import ProfileDigest

#: Default number of stored-profile digests advertised per gossip message
#: (the paper exchanges at most 50 profiles per cycle).
DEFAULT_EXCHANGE_SIZE = 50


class LazyExchangeProtocol:
    """Personal-network maintenance through pairwise profile gossip.

    Every digest probe goes through the receiving peer's own
    :class:`~repro.gossip.digest.DigestCache` (``receiver.digest_cache``;
    in a simulation every node shares one): one exchange's candidate set is
    priced in a batched pass over the receiver's cached probe-mask rows, and
    an unchanged (receiver, subject) pair is never re-probed.
    """

    def __init__(
        self,
        exchange_size: int = DEFAULT_EXCHANGE_SIZE,
        three_step: bool = True,
    ) -> None:
        """``three_step=False`` disables the digest pre-filtering and ships
        full profiles for every advertised user -- the ablation baseline for
        the bandwidth experiments.
        """
        if exchange_size <= 0:
            raise ValueError("exchange_size must be positive")
        self.exchange_size = exchange_size
        self.three_step = three_step
        #: receiver_id -> {subject_id -> last digest version already
        #: evaluated}, so an unchanged random-view member is not re-scored
        #: every cycle.  Nested (rather than tuple-keyed) because the outer
        #: lookup happens once per refresh while the inner one runs per
        #: digest per cycle -- no tuple allocation on the steady-state path.
        self._evaluated: Dict[int, Dict[int, int]] = {}

    # -- cycle entry points ---------------------------------------------------

    def run_cycle_effects(self, initiator) -> WireEffects:
        """One lazy top-layer cycle for ``initiator`` (yields wire effects).

        Selects the personal-network neighbour with the oldest timestamp
        (falling back to a random-view member while the personal network is
        still empty), performs the symmetric exchange, and refreshes
        candidates coming from the random view.  Returns the partner id, or
        ``None`` if no partner was reachable.
        """
        partner_id = initiator.personal_network.select_oldest()
        if partner_id is None:
            partner_id = initiator.random_view.random_partner(initiator.rng)
        if partner_id is None:
            yield from self.refresh_from_random_view_effects(initiator)
            return None
        if partner_id in initiator.personal_network:
            initiator.personal_network.mark_gossiped(partner_id)
        # Reachability check BEFORE sampling: stored_digest_sample consumes
        # the initiator's RNG stream, and an unreachable partner must not
        # consume it (seed ordering; the transport re-checks on delivery).
        if not (yield ProbeEffect(partner_id)):
            # Partner departed: the cycle's slot is lost, but the random view
            # is still a source of fresh candidates.
            yield from self.refresh_from_random_view_effects(initiator)
            return None
        exchanged = yield from self.exchange_effects(initiator, partner_id)
        yield from self.refresh_from_random_view_effects(initiator)
        return partner_id if exchanged else None

    def exchange_effects(self, initiator, partner_id: int) -> WireEffects:
        """Symmetric digest/profile exchange between two online peers.

        Yields wire effects.  Returns ``True`` when the exchange was
        delivered (or deferred by a latency transport -- it will complete
        when the queue drains), and ``False`` when the advertisement was
        lost.
        """
        sent = tuple(initiator.stored_digest_sample(self.exchange_size))
        dispatch = yield RequestEffect(
            initiator.node_id,
            partner_id,
            DigestAdvertisement(digests=sent, view=VIEW_PERSONAL),
        )
        if dispatch.reply is not None:
            yield from self.integrate_effects(
                initiator, partner_id, dispatch.reply.digests
            )
            return True
        return dispatch.deferred

    # -- receiving side -------------------------------------------------------

    def handle_advertisement_effects(self, receiver, envelope: Envelope) -> WireEffects:
        """Process an incoming lazy advertisement; reply with ours when asked.

        Yields wire effects; returns the reply advertisement or ``None``.
        The reply sample is drawn *before* integration, matching the seed's
        order (both samples were taken before either side integrated).
        """
        reply: Optional[DigestAdvertisement] = None
        if envelope.expects_reply:
            digests = tuple(receiver.stored_digest_sample(self.exchange_size))
            reply = DigestAdvertisement(digests=digests, view=VIEW_PERSONAL)
        yield from self.integrate_effects(
            receiver,
            envelope.sender,
            envelope.message.digests,
            query_id=envelope.query_id,
        )
        return reply

    # -- transport round-trips ------------------------------------------------

    def _fetch_common_actions_effects(
        self,
        receiver,
        provider_id: int,
        subject_id: int,
        items: Set[int],
        query_id: Optional[int] = None,
    ) -> WireEffects:
        """Step-2 round-trip: the subject's actions on the common items.

        The reply carries interned action ids (see
        :class:`~repro.simulator.transport.CommonItemsReply`): same
        cardinality, same accounting, same overlap score as the tuple form.
        ``items`` is handed to the message as-is (no defensive copy: this is
        the hot path and every handler treats message payloads as read-only).
        """
        dispatch = yield RequestEffect(
            receiver.node_id,
            provider_id,
            CommonItemsRequest(subject_id=subject_id, items=items),
            query_id=query_id,
        )
        return dispatch.reply.actions if dispatch.reply is not None else None

    def _fetch_profile_effects(
        self,
        receiver,
        provider_id: int,
        subject_id: int,
        query_id: Optional[int] = None,
    ) -> WireEffects:
        """Step-3 round-trip: a full profile replica from its holder."""
        dispatch = yield RequestEffect(
            receiver.node_id,
            provider_id,
            FullProfileRequest(subject_id=subject_id),
            query_id=query_id,
        )
        return dispatch.reply.profile if dispatch.reply is not None else None

    # -- Algorithm 1 ----------------------------------------------------------

    def integrate_effects(
        self,
        receiver,
        provider_id: int,
        digests: Iterable[ProfileDigest],
        query_id: Optional[int] = None,
    ) -> WireEffects:
        """Process digests received from the provider (Algorithm 1).

        Yields wire effects.  Returns the list of user ids that were added
        to / refreshed in the receiver's personal network.
        """
        own_ids = receiver.profile.action_ids

        #: (digest, gated) in advertisement order; ``gated`` marks unknown
        #: candidates that must pass the step-1 common-item gate.
        screened: List[Tuple[ProfileDigest, bool]] = []
        for digest in digests:
            if digest.user_id == receiver.node_id:
                continue
            existing = receiver.personal_network.get(digest.user_id)
            if existing is not None:
                if digest.version <= existing.digest.version and existing.profile is not None:
                    # Known neighbour, unchanged digest, replica present: drop.
                    continue
                screened.append((digest, False))
                continue
            screened.append((digest, self.three_step))

        # Step 1 gate, batched: price the whole candidate set's common items
        # in one pass over the receiver's cached probe rows.  A gated
        # candidate sharing no item cannot have a positive score: drop.
        candidates: List[ProfileDigest] = []
        #: user_id -> common items found at the step-1 gate, reused in step 2
        #: so the digest is probed only once per exchange.
        common_by_user: Dict[int, Set[int]] = {}
        for digest, gated in screened:
            if gated:
                common = receiver.digest_cache.common_items(receiver.profile, digest)
                if not common:
                    continue
                common_by_user[digest.user_id] = common
            candidates.append(digest)

        updated: List[int] = []
        fetched_profiles: Set[int] = set()
        for digest in candidates:
            if not self.three_step:
                profile = yield from self._fetch_profile_effects(
                    receiver, provider_id, digest.user_id, query_id
                )
                if profile is None:
                    continue
                score = overlap_score_from_actions(own_ids, profile.action_ids)
                if receiver.personal_network.consider(digest.user_id, score, digest):
                    receiver.personal_network.store_profile(digest.user_id, profile)
                    updated.append(digest.user_id)
                    fetched_profiles.add(digest.user_id)
                continue

            # Step 2: pull only the actions on common items to score exactly.
            common_items = common_by_user.get(digest.user_id)
            if common_items is None:  # known-but-changed neighbour, not gated
                common_items = receiver.digest_cache.common_items(receiver.profile, digest)
            actions = yield from self._fetch_common_actions_effects(
                receiver, provider_id, digest.user_id, common_items, query_id
            )
            if actions is None:
                continue
            score = overlap_score_from_actions(own_ids, actions)
            if score <= 0:
                # A Bloom false positive: no real common action after all.
                continue
            if receiver.personal_network.consider(digest.user_id, score, digest):
                updated.append(digest.user_id)

        # Step 3: fetch the full profiles of freshly-qualified top-c entries.
        if self.three_step:
            wanted = set(receiver.personal_network.profiles_wanted())
            for user_id in sorted(wanted):
                if user_id in fetched_profiles:
                    continue
                profile = yield from self._fetch_profile_effects(
                    receiver, provider_id, user_id, query_id
                )
                if profile is None:
                    continue
                receiver.personal_network.store_profile(user_id, profile)
        return updated

    # -- random-view candidates -----------------------------------------------

    def refresh_from_random_view_effects(self, peer) -> WireEffects:
        """Score random-view members that might share an item (Section 2.2.1).

        The profile of a random-view member ``v`` is obtained by contacting
        ``v`` directly when her digest contains at least one item the local
        user tagged.  A member whose digest version has already been
        evaluated is skipped, so stable views do not generate traffic every
        cycle.  Yields wire effects; returns the ids added to the personal
        network.

        The personal network records the random-view copy of the member's
        digest, the one this peer already holds: a real wire cannot read
        the member's live digest, so neither runtime does.
        """
        own_ids = peer.profile.action_ids
        added: List[int] = []
        evaluated = self._evaluated.get(peer.node_id)
        if evaluated is None:
            evaluated = self._evaluated[peer.node_id] = {}
        for digest in peer.random_view.digests():
            if evaluated.get(digest.user_id, -1) >= digest.version:
                continue
            evaluated[digest.user_id] = digest.version
            if digest.user_id in peer.personal_network:
                continue
            if self.three_step and not peer.digest_cache.shares_item(peer.profile, digest):
                # Gate on the (memoized) common-item probe: a member sharing
                # no item with us cannot enter the personal network.
                continue
            subject_id = digest.user_id
            if not (yield ProbeEffect(subject_id)):
                continue
            if not self.three_step:
                # Ablation variant: fetch the whole profile straight away.
                profile = yield from self._fetch_profile_effects(
                    peer, subject_id, subject_id
                )
                if profile is None:
                    continue
                score = overlap_score_from_actions(own_ids, profile.action_ids)
                if score > 0:
                    if peer.personal_network.consider(subject_id, score, digest):
                        added.append(subject_id)
                        peer.personal_network.store_profile(subject_id, profile)
                continue
            common_items = peer.digest_cache.common_items(peer.profile, digest)
            actions = yield from self._fetch_common_actions_effects(
                peer, subject_id, subject_id, common_items
            )
            if actions is None:
                continue
            score = overlap_score_from_actions(own_ids, actions)
            if score <= 0:
                continue
            if peer.personal_network.consider(subject_id, score, digest):
                added.append(subject_id)
                if subject_id in peer.personal_network.profiles_wanted():
                    profile = yield from self._fetch_profile_effects(
                        peer, subject_id, subject_id
                    )
                    if profile is not None:
                        peer.personal_network.store_profile(subject_id, profile)
        return added
