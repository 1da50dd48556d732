"""Lazy-mode personal-network maintenance (paper Algorithm 1).

The top layer of the lazy gossip tracks similarity between profiles and
discovers new neighbours.  Its key cost-saving device is the 3-step
exchange, now carried by explicit transport messages:

1. **Digests** -- the partners swap
   :class:`~repro.simulator.transport.DigestOffer` messages: one
   ``(user_id, version)`` descriptor for their own digest and for each of
   (a sample of) the profiles they store, less what the partner would drop
   unread (:meth:`~repro.simulator.transport.DigestOffer.to`, applied after
   the sample is drawn): its own descriptor, and, in the reply, each
   descriptor whose user the request carried at the same or a newer
   version.  A reply to a request the delay queue held keeps those: the
   request describes the initiator as it was cycles ago.  The receiver
   screens the descriptors: one that describes an unchanged, already-known
   profile is dropped unread.  "Already known" means a stored replica, or
   a neighbour that step 2 already scored at this digest version against
   the receiver's current profile version
   (:attr:`~repro.gossip.views.NeighbourEntry.scored_version`): asking
   again would price the same two profile versions.  An unknown user
   whose common-item answer at these two versions the receiver's own
   memo holds empty (:meth:`~repro.gossip.digest.DigestCache.memoized`)
   is dropped too: the gate below would drop it after the pull.  A
   rejected non-neighbour with a non-empty answer is still re-scored at
   an unchanged digest version.  For the survivors the receiver reads its
   own copy of the digest when its personal network holds that exact
   version, and pulls the rest from the provider in one batched round trip
   (:class:`~repro.simulator.transport.DigestPullRequest` /
   :class:`~repro.simulator.transport.DigestPullReply`): push identifiers,
   pull payloads.  A user sharing no item with the receiver is then
   dropped.
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
touches the stats collector.  The pull and the steps 2 and 3 sub-requests
are synchronous round-trips in every transport -- a lossy transport may drop
them (the candidate is simply skipped, like an unavailable provider), but a
latency transport only delays the *top-level* advertisement, never the
sub-requests of an exchange already being processed.

The protocol is sans-io (:mod:`repro.simulator.effects`), and both runtimes
drive the same generators.  The pull and step-2/3 round-trips *nested inside* an
exchange are what forces the generator shape -- a flat "return the outbound
messages" API could not express a handler that needs an answer mid-flight.

This module sits on the hot path of every lazy cycle.  It leans on the
performance layer described in ``docs/ARCHITECTURE.md``: the receiver's item
and action views (``profile.items`` / ``profile.actions``) are per-version
cached frozensets, digest probes read the digest's own wire row at the
receiver's cached probe positions
(:meth:`repro.gossip.digest.DigestCache.common_items`), and similarity
scores are C-level set intersections
(:func:`repro.similarity.metrics.overlap_score_from_actions`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..similarity.metrics import overlap_score_from_actions
from ..simulator.effects import RequestEffect, WireEffects
from ..simulator.transport import (
    CommonItemsRequest,
    Descriptor,
    DigestOffer,
    DigestPullRequest,
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
    priced in a batched pass over the receiver's cached probe rows, and
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
        ``None`` if the exchange did not happen.  A departed partner answers
        the offer ``UNREACHABLE``: the cycle's slot is lost, but the random
        view is still a source of fresh candidates.
        """
        partner_id = initiator.personal_network.select_oldest()
        if partner_id is None:
            partner_id = initiator.random_view.random_partner(initiator.rng)
        if partner_id is None:
            yield from self.refresh_from_random_view_effects(initiator)
            return None
        if partner_id in initiator.personal_network:
            initiator.personal_network.mark_gossiped(partner_id)
        exchanged = yield from self.exchange_effects(initiator, partner_id)
        yield from self.refresh_from_random_view_effects(initiator)
        return partner_id if exchanged else None

    def exchange_effects(self, initiator, partner_id: int) -> WireEffects:
        """Symmetric digest/profile exchange between two peers.

        Yields wire effects.  Returns ``True`` when the exchange was
        delivered (or deferred by a latency transport -- it will complete
        when the queue drains), and ``False`` when the offer was lost or
        the partner was unreachable.
        """
        sent = initiator.stored_digest_sample(self.exchange_size)
        dispatch = yield RequestEffect(
            initiator.node_id, partner_id, DigestOffer.to(partner_id, sent)
        )
        if dispatch.reply is not None:
            yield from self.integrate_effects(
                initiator, partner_id, dispatch.reply.descriptors
            )
            return True
        return dispatch.deferred

    # -- receiving side -------------------------------------------------------

    def handle_advertisement_effects(self, receiver, envelope: Envelope) -> WireEffects:
        """Process an incoming offer; reply with ours when asked.

        Yields wire effects; returns the reply offer or ``None``.  The reply
        sample is drawn *before* integration, matching the seed's order
        (both samples were taken before either side integrated).
        """
        reply: Optional[DigestOffer] = None
        if envelope.expects_reply:
            digests = receiver.stored_digest_sample(self.exchange_size)
            shown = () if envelope.deferred else envelope.message.descriptors
            reply = DigestOffer.to(envelope.sender, digests, shown)
        yield from self.integrate_effects(
            receiver,
            envelope.sender,
            envelope.message.descriptors,
            query_id=envelope.query_id,
        )
        return reply

    # -- transport round-trips ------------------------------------------------

    def _pull_digests_effects(
        self,
        receiver,
        provider_id: int,
        wanted: List[Descriptor],
        query_id: Optional[int] = None,
    ) -> WireEffects:
        """One pull (an exchange's batch, or a refresh's one member): the
        digests ``wanted``, keyed by descriptor; a digest the provider no
        longer holds is missing, and a lost pull returns none."""
        dispatch = yield RequestEffect(
            receiver.node_id,
            provider_id,
            DigestPullRequest(descriptors=tuple(wanted)),
            query_id=query_id,
        )
        if dispatch.reply is None:
            return {}
        return {(digest.user_id, digest.version): digest for digest in dispatch.reply.digests}

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
        descriptors: Iterable[Descriptor],
        query_id: Optional[int] = None,
    ) -> WireEffects:
        """Process the descriptors offered by the provider (Algorithm 1).

        Yields wire effects.  Returns the list of user ids that were added
        to / refreshed in the receiver's personal network.
        """
        # Read together, before any round trip: a service coroutine may see
        # the receiver's profile move while it waits, and a score is only
        # as current as the ids it was computed from.
        own_ids = receiver.profile.action_ids
        own_version = receiver.profile.version

        #: (user_id, version, gated, held digest or None) in offer order;
        #: ``gated`` marks unknown candidates that must pass the step-1
        #: common-item gate.
        screened: List[Tuple[int, int, bool, Optional[ProfileDigest]]] = []
        #: The descriptors to pull: read, and not held at that version.
        wanted: List[Descriptor] = []
        memoized = receiver.digest_cache.memoized
        for user_id, version in descriptors:
            if user_id == receiver.node_id:
                continue
            existing = receiver.personal_network.get(user_id)
            if existing is None:
                gated = self.three_step
                if gated:
                    known = memoized(receiver.profile, user_id, version)
                    if known is not None and not known:
                        # The gate's answer at these two versions is
                        # remembered empty: drop it unpulled.
                        continue
            elif version <= existing.digest.version and (
                existing.profile is not None or existing.scored_version == own_version
            ):
                # Known neighbour, unchanged digest, and either a replica is
                # stored or step 2 already scored it against this profile
                # version: drop unread.
                continue
            else:
                gated = False
            held = receiver.held_digest(user_id, version)
            if held is None:
                wanted.append((user_id, version))
            screened.append((user_id, version, gated, held))
        pulled: Dict[Descriptor, ProfileDigest] = {}
        if wanted:
            pulled = yield from self._pull_digests_effects(
                receiver, provider_id, wanted, query_id
            )

        # Step 1 gate, batched: price the whole candidate set's common items
        # in one pass over the receiver's cached probe rows.  A gated
        # candidate sharing no item cannot have a positive score: drop.
        candidates: List[ProfileDigest] = []
        #: user_id -> common items found at the step-1 gate, reused in step 2
        #: so the digest is probed only once per exchange.
        common_by_user: Dict[int, Set[int]] = {}
        for user_id, version, gated, digest in screened:
            if digest is None:
                digest = pulled.get((user_id, version))
                if digest is None:  # not pulled: skipped as if unavailable
                    continue
            if gated:
                common = receiver.digest_cache.common_items(receiver.profile, digest)
                if not common:
                    continue
                common_by_user[user_id] = common
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
                entry = receiver.personal_network.entry(digest.user_id)
                # The score stands for this digest version only: an older
                # digest's score on a newer entry is asked again next time.
                entry.scored_version = (
                    own_version if entry.digest.version == digest.version else -1
                )

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

        The view holds ``(user_id, version)`` descriptors.  A member ``v``
        whose version has not been evaluated yet and who is not already a
        neighbour has her digest row at exactly that version pulled from
        ``v`` herself (a :class:`DigestPullRequest` of one descriptor); when
        it shares at least one item the local user tagged, ``v`` is scored
        by contacting her directly.  A member that has gone answers the
        pull ``UNREACHABLE``, and one that moved on from the advertised
        version answers it short; either is skipped.  Stable views
        generate no traffic.  Yields wire effects; returns the ids added to
        the personal network, which keeps the pulled row of each.
        """
        own_ids = peer.profile.action_ids
        added: List[int] = []
        evaluated = self._evaluated.get(peer.node_id)
        if evaluated is None:
            evaluated = self._evaluated[peer.node_id] = {}
        for subject_id, version in peer.random_view.descriptors():
            if evaluated.get(subject_id, -1) >= version:
                continue
            evaluated[subject_id] = version
            if subject_id in peer.personal_network:
                continue
            pulled = yield from self._pull_digests_effects(
                peer, subject_id, [(subject_id, version)]
            )
            digest = pulled.get((subject_id, version))
            if digest is None:
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
            # Gate on the common-item probe: a member sharing no item with
            # us cannot enter the personal network.  Priced once and not
            # memoized: ``evaluated`` never asks this pair again at this
            # digest version.
            common_items = peer.digest_cache.probe(peer.profile, digest)
            if not common_items:
                continue
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
