"""What an advertisement carries, and what the lazy gossip pulls.

A random-view swap is a :class:`~repro.simulator.transport.DigestAdvertisement`
and a lazy exchange's advertisement a
:class:`~repro.simulator.transport.DigestOffer`, both of ``(user_id,
version)`` descriptors.  Neither carries what its receiver would drop
unread: its own descriptor (``integrate_effects`` skips it,
``RandomView.merge`` skips the owner) or, in a reply, each descriptor whose
user the request carried at the same or a newer version (the initiator sent
it from its own replicas or view).  A reply to a request the delay queue
held keeps those echoes: that request describes its sender as it was cycles
ago.  The senders draw their sample first and filter after, so only the two
digest byte kinds fall.

The receiver of an offer screens the descriptors at step 1, drops an
unknown user whose common-item answer at these two versions its own memo
holds empty, and pulls, in one round trip to the provider, only the rows it
reads and does not hold at that exact version in its personal network
(:meth:`P3QNode.held_digest`).  A random-view refresh pulls the row of each
member it evaluates -- one whose version it has not evaluated and who is not a
neighbour -- from the member herself.  On a run with no loss and no delay
the exchange's rule changes ``personal_digests`` bytes and messages only:
networks, replicas, views and query results are those of a run that pulls
every offered descriptor.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.experiments.runner import converged_simulation
from repro.gossip.profile_exchange import LazyExchangeProtocol
from repro.service import ServiceConfig, ServiceRuntime, ServiceTrace
from repro.service.cli import main as service_main
from repro.service.demo import build_demo_workload
from repro.simtest import ChurnEvent, DynamicsSpec, ScenarioSpec, run_scenario
from repro.simtest import runner as simtest_runner
from repro.simtest.invariants import InvariantChecker, default_checkers
from repro.simtest.runner import build_simulation
from repro.simulator.effects import RequestEffect
from repro.simulator.engine import PHASE_EAGER, PHASE_LAZY
from repro.simulator.stats import KIND_DIGESTS, KIND_RANDOM_VIEW
from repro.simulator.transport import (
    DELIVERED,
    DROPPED,
    OP_DRAIN,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    DigestAdvertisement,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    Envelope,
)

_CHURN = (
    ChurnEvent(PHASE_LAZY, 2, fraction=0.1, rejoin_after=3),
    ChurnEvent(PHASE_EAGER, 2, fraction=0.1, rejoin_after=4, mode="crash"),
)

#: Loss, delay, churn of both modes and a change day, with ``exchange_size``
#: below ``storage`` so that ``stored_digest_sample`` draws its sample.
SPEC = ScenarioSpec(
    num_users=40,
    network_size=10,
    storage=6,
    exchange_size=3,
    loss_rate=0.1,
    delay_cycles=1,
    lazy_cycles=8,
    eager_cycles=10,
    churn=_CHURN,
    dynamics=DynamicsSpec(at_cycle=4, change_fraction=0.3),
    seed=5,
)

#: ``SPEC`` with no loss and no delay, and with free riders.  Storage stays
#: below the network size, so a provider's own integration can truncate
#: only entries it does not store, which it never offers: every exchange
#: pull is answered in full, and the pull rule can only move personal-digest
#: traffic.  A refresh pull comes back short only from a member whose
#: profile moved on at the change day after her descriptor was swapped.
DIRECT_SPEC = ScenarioSpec(
    num_users=40,
    network_size=10,
    storage=6,
    exchange_size=3,
    lazy_cycles=8,
    eager_cycles=10,
    churn=_CHURN,
    dynamics=DynamicsSpec(at_cycle=4, change_fraction=0.3),
    free_rider_fraction=0.1,
    seed=5,
)

#: ``DIRECT_SPEC`` with no change day: no pull of any kind comes back short.
STATIC_SPEC = DIRECT_SPEC.but(dynamics=None)

#: The filters as committed, before any test patches them.
AD_TO = DigestAdvertisement.to
OFFER_TO = DigestOffer.to


def _described(message):
    """``(user_id, version)`` of each digest a message names."""
    if type(message) is DigestPullReply:
        return tuple((digest.user_id, digest.version) for digest in message.digests)
    return message.descriptors


def _run(monkeypatch, spec, patches=()):
    """``spec``'s simtest fingerprint, plus its ``messages_by_kind``, with
    each ``(owner, name) -> value`` of ``patches`` applied for the run."""
    fingerprint = simtest_runner.fingerprint

    def with_kinds(simulation):
        return {
            **fingerprint(simulation),
            "messages_by_kind": {
                kind: simulation.stats.total_messages(kind)
                for kind in simulation.stats.bytes_by_kind()
            },
        }

    with monkeypatch.context() as patch:
        patch.setattr(simtest_runner, "fingerprint", with_kinds)
        for (owner, name), value in dict(patches).items():
            patch.setattr(owner, name, value)
        result = run_scenario(spec)
    assert result.ok, result.violation
    return result.fingerprint


def _assert_digest_bytes_only_fall(filtered, unfiltered):
    """Both digest kinds cost less; every other field, and the message count
    of every kind, is equal; no cycle costs more."""
    assert max(len(ids) for ids in filtered["stored"].values()) > SPEC.exchange_size
    fewer, more = filtered.pop("bytes_by_kind"), unfiltered.pop("bytes_by_kind")
    for kind in (KIND_DIGESTS, KIND_RANDOM_VIEW):
        assert fewer.pop(kind) < more.pop(kind)
    assert fewer == more
    fewer, more = filtered.pop("bytes_by_cycle"), unfiltered.pop("bytes_by_cycle")
    assert fewer.keys() == more.keys()
    assert all(fewer[cycle] <= more[cycle] for cycle in fewer)
    assert filtered == unfiltered


def test_leaving_the_receivers_digest_out_moves_digest_bytes_only(monkeypatch):
    keep_all = {
        (DigestAdvertisement, "to"): classmethod(
            lambda cls, receiver_id, descriptors, shown=(): cls(tuple(descriptors))
        ),
        (DigestOffer, "to"): classmethod(
            lambda cls, receiver_id, digests, shown=(): cls(
                tuple((digest.user_id, digest.version) for digest in digests)
            )
        ),
    }
    _assert_digest_bytes_only_fall(_run(monkeypatch, SPEC), _run(monkeypatch, SPEC, keep_all))


def test_leaving_the_requests_digests_out_of_a_reply_moves_digest_bytes_only(monkeypatch):
    ignore_shown = {
        (DigestAdvertisement, "to"): classmethod(
            lambda cls, receiver_id, descriptors, shown=(): AD_TO(receiver_id, descriptors)
        ),
        (DigestOffer, "to"): classmethod(
            lambda cls, receiver_id, digests, shown=(): OFFER_TO(receiver_id, digests)
        ),
    }
    _assert_digest_bytes_only_fall(
        _run(monkeypatch, SPEC), _run(monkeypatch, SPEC, ignore_shown)
    )


def _pull_every_descriptor():
    """Patches under which each integration pulls every offered descriptor
    first, as the paper's 3-step model ships every offered row, and then
    reads what it asks for from those rows.  A refresh pulls as committed."""
    integrate = LazyExchangeProtocol.integrate_effects
    pull = LazyExchangeProtocol._pull_digests_effects
    rows = {}

    def integrating(protocol, receiver, provider_id, descriptors, query_id=None):
        descriptors = tuple(descriptors)
        key = receiver.node_id, provider_id
        rows[key] = (
            (yield from pull(protocol, receiver, provider_id, list(descriptors), query_id))
            if descriptors else {}
        )
        try:
            return (yield from integrate(protocol, receiver, provider_id, descriptors, query_id))
        finally:
            del rows[key]

    def already_pulled(protocol, receiver, provider_id, wanted, query_id=None):
        pulled = rows.get((receiver.node_id, provider_id))
        if pulled is None:  # a refresh's pull
            return (yield from pull(protocol, receiver, provider_id, wanted, query_id))
        return {descriptor: pulled[descriptor] for descriptor in wanted if descriptor in pulled}

    return {
        (LazyExchangeProtocol, "integrate_effects"): integrating,
        (LazyExchangeProtocol, "_pull_digests_effects"): already_pulled,
    }


def test_pulling_only_unread_unheld_rows_moves_personal_digest_traffic_only(monkeypatch):
    pulled = _run(monkeypatch, DIRECT_SPEC)
    everything = _run(monkeypatch, DIRECT_SPEC, _pull_every_descriptor())
    assert max(len(ids) for ids in pulled["stored"].values()) > DIRECT_SPEC.exchange_size
    fewer, more = pulled.pop("bytes_by_kind"), everything.pop("bytes_by_kind")
    assert fewer.pop(KIND_DIGESTS) < more.pop(KIND_DIGESTS)
    assert fewer == more
    fewer, more = pulled.pop("bytes_by_cycle"), everything.pop("bytes_by_cycle")
    assert fewer.keys() == more.keys()
    assert all(fewer[cycle] <= more[cycle] for cycle in fewer)
    # Pulls are personal-digest messages; every other kind's count is equal.
    pulled.pop("messages"), everything.pop("messages")
    fewer, more = pulled.pop("messages_by_kind"), everything.pop("messages_by_kind")
    assert fewer.pop(KIND_DIGESTS) <= more.pop(KIND_DIGESTS)
    assert fewer == more
    assert pulled == everything


def _dropped_at_step_1(asker, user_id, version):
    """The step-1 rule of ``integrate_effects``: the asker's own digest, or a
    known neighbour at an unchanged digest with a replica stored or a score
    standing for the asker's current version."""
    if user_id == asker.node_id:
        return True
    entry = asker.personal_network.get(user_id)
    return (
        entry is not None
        and version <= entry.digest.version
        and (entry.profile is not None or entry.scored_version == asker.profile.version)
    )


def _gated_empty(asker, user_id, version):
    """An unknown user whose gate answer at these two versions the asker's
    own memo holds empty: ``integrate_effects`` drops it unpulled."""
    known = asker.digest_cache.memoized(asker.profile, user_id, version)
    return user_id not in asker.personal_network and known is not None and not known


def _each_pull(gen, check):
    """Run ``gen``, calling ``check`` with each digest pull it yields, as it
    yields it (both runtimes only ever ``send`` into a protocol generator)."""
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if type(effect) is RequestEffect and type(effect.message) is DigestPullRequest:
            check(effect)
        value = yield effect


class _PullRules:
    """Every pull an integration or a refresh makes, checked against its
    asker's state at the moment it asks; ``patches`` installs the checks.
    ``offending`` lists ``(rule, asker, descriptor)``: ``"exchange"`` for an
    exchange pull of a descriptor not offered, dropped at step 1 or held,
    ``"memo"`` for one the memo gated empty, ``"refresh"`` for a refresh
    pull not sent to the one member it names, or naming a version
    ``_evaluated`` had seen or a neighbour."""

    def __init__(self) -> None:
        #: id of each pull request -> ``"exchange"`` or ``"refresh"``.
        self.kinds = {}
        self.offending = []

    def patches(self):
        integrate = LazyExchangeProtocol.integrate_effects
        refresh = LazyExchangeProtocol.refresh_from_random_view_effects

        def integrating(protocol, receiver, provider_id, descriptors, query_id=None):
            descriptors = tuple(descriptors)

            def check(effect):
                self.kinds[id(effect.message)] = "exchange"
                for descriptor in effect.message.descriptors:
                    if _gated_empty(receiver, *descriptor):
                        self.offending.append(("memo", receiver.node_id, descriptor))
                    if (
                        effect.receiver != provider_id
                        or descriptor not in descriptors
                        or _dropped_at_step_1(receiver, *descriptor)
                        or receiver.held_digest(*descriptor) is not None
                    ):
                        self.offending.append(("exchange", receiver.node_id, descriptor))

            return (yield from _each_pull(
                integrate(protocol, receiver, provider_id, descriptors, query_id), check
            ))

        def refreshing(protocol, peer):
            seen = dict(protocol._evaluated.get(peer.node_id, {}))

            def check(effect):
                self.kinds[id(effect.message)] = "refresh"
                ((member, version),) = effect.message.descriptors
                if (
                    effect.receiver != member
                    or seen.get(member, -1) >= version
                    or member in peer.personal_network
                ):
                    self.offending.append(("refresh", peer.node_id, (member, version)))

            return (yield from _each_pull(refresh(protocol, peer), check))

        return {
            (LazyExchangeProtocol, "integrate_effects"): integrating,
            (LazyExchangeProtocol, "refresh_from_random_view_effects"): refreshing,
        }


class _PullReplies(InvariantChecker):
    """Each pull reply's length against its request's, as the engine wire
    carries them: ``short`` lists ``(kind, request, member moved on)``."""

    name = "pull-replies"

    def __init__(self, rules: _PullRules) -> None:
        super().__init__()
        self.rules = rules
        self.pulls = []
        self.short = []

    def on_wire_event(self, event) -> None:
        message = event.message
        if type(message) is DigestPullRequest and event.op == OP_REQUEST:
            self.pulls.append(message)
        elif type(message) is DigestPullReply and event.op == OP_REPLY:
            asked = self.pulls[-1]
            if len(message.digests) != len(asked.descriptors):
                provider = self.ctx.simulation.nodes[event.sender]
                moved = all(
                    user_id == provider.node_id and version != provider.profile.version
                    for user_id, version in set(asked.descriptors) - set(_described(message))
                )
                self.short.append((self.rules.kinds[id(asked)], asked, moved))


def _checked_run(spec):
    rules = _PullRules()
    replies = _PullReplies(rules)
    with pytest.MonkeyPatch.context() as patch:
        for (owner, name), value in rules.patches().items():
            patch.setattr(owner, name, value)
        result = run_scenario(spec, checkers=default_checkers(spec) + [replies])
    assert result.ok, result.violation
    assert set(rules.kinds.values()) == {"exchange", "refresh"}
    return rules, replies


@pytest.fixture(scope="module")
def direct_pulls():
    return _checked_run(DIRECT_SPEC)


def _broken(rules, rule):
    return [offence for offence in rules.offending if offence[0] == rule]


def test_no_engine_pull_names_a_read_or_held_digest_or_comes_back_short(direct_pulls):
    """No exchange pull names a digest its asker was not offered, drops at
    step 1 or holds, and none comes back short; a refresh pull comes back
    short only from a member who moved on at the change day."""
    rules, replies = direct_pulls
    assert not _broken(rules, "exchange")
    assert replies.short and all(
        kind == "refresh" and moved for kind, _, moved in replies.short
    )


def test_no_engine_exchange_pull_names_what_the_memo_knows_shares_nothing(direct_pulls):
    rules, _ = direct_pulls
    assert not _broken(rules, "memo")


def test_every_engine_refresh_pull_names_one_unevaluated_non_neighbour_to_herself(
    direct_pulls,
):
    rules, _ = direct_pulls
    assert list(rules.kinds.values()).count("refresh") > 0
    assert not _broken(rules, "refresh")


def test_no_engine_pull_comes_back_short_without_a_change_day():
    rules, replies = _checked_run(STATIC_SPEC)
    assert not rules.offending
    assert len(replies.pulls) > 0 and not replies.short


def _advertised_to_self(events):
    """Advertisements seen, and those carrying their receiver's digest; a
    pull or its reply naming its asker counts too."""
    seen, offending = 0, []
    for event in events:
        message = event.message
        if type(message) in (DigestAdvertisement, DigestOffer):
            seen += 1
            subject = event.receiver
        elif type(message) is DigestPullRequest:
            subject = event.sender
        elif type(message) is DigestPullReply:
            subject = event.receiver
        else:
            continue
        if any(user_id == subject for user_id, _ in _described(message)):
            offending.append(event)
    return seen, offending


def test_the_engine_wire_carries_no_digest_to_its_own_subject():
    simulation, _ = build_simulation(SPEC)
    events = []
    simulation.network.transport.add_observer(events.append)
    simulation.bootstrap_random_views()
    simulation.run_lazy(SPEC.lazy_cycles)
    seen, offending = _advertised_to_self(events)
    assert seen > 0 and not offending


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """A ``service --smoke`` run: its wire events, reloaded from its trace,
    and each pull its nodes made that broke a rule of :class:`_PullRules`
    when it asked."""
    path = tmp_path_factory.mktemp("smoke") / "smoke.trace"
    rules = _PullRules()
    with pytest.MonkeyPatch.context() as patch:
        for (owner, name), value in rules.patches().items():
            patch.setattr(owner, name, value)
        assert service_main(["--smoke", "--trace", str(path)]) == 0
    assert set(rules.kinds.values()) == {"exchange", "refresh"}
    return list(ServiceTrace.load(str(path)).events), rules.offending


@pytest.fixture(scope="module")
def smoke_events(smoke_run):
    return smoke_run[0]


def test_a_service_smoke_trace_carries_no_digest_to_its_own_subject(smoke_events):
    seen, offending = _advertised_to_self(smoke_events)
    assert seen > 0 and not offending


def test_no_service_smoke_pull_names_a_read_or_held_digest(smoke_run):
    """Checked as each node asked; the reloaded trace then shows every pulled
    descriptor among those its provider offered the asker, or, for a
    refresh, a pull of one descriptor naming the member it is sent to.  (A
    node records its request when the reply arrives, so an offer's request
    leg may follow the pull its receiver made while handling it.)"""
    events, offending = smoke_run
    assert not offending
    offered = {
        (event.sender, event.receiver, descriptor)
        for event in events
        if type(event.message) is DigestOffer
        for descriptor in event.message.descriptors
    }
    pulls = [
        event for event in events
        if type(event.message) is DigestPullRequest and event.op == OP_REQUEST
    ]
    answered = [
        event for event in pulls
        if all((event.receiver, event.sender, d) in offered for d in event.message.descriptors)
    ]
    assert answered
    for event in pulls:
        if event not in answered:
            assert [user_id for user_id, _ in event.message.descriptors] == [event.receiver]


def test_every_service_smoke_refresh_pull_names_its_receiver(smoke_run):
    """A pull answering no offer is a refresh's: one descriptor, naming the
    member it is sent to."""
    events, offending = smoke_run
    assert not [offence for offence in offending if offence[0] == "refresh"]
    offered = {
        (event.sender, event.receiver)
        for event in events
        if type(event.message) is DigestOffer
    }
    refreshes = [
        event for event in events
        if type(event.message) is DigestPullRequest and event.op == OP_REQUEST
        and (event.receiver, event.sender) not in offered
    ]
    assert refreshes
    for event in refreshes:
        ((user_id, _),) = event.message.descriptors
        assert user_id == event.receiver


def _echoes(request, reply):
    """The digests of ``reply`` whose user ``request`` carried at the same or
    a newer version."""
    shown = dict(_described(request))
    return [
        (user_id, version) for user_id, version in _described(reply)
        if shown.get(user_id, -1) >= version
    ]


_ADVERTISEMENTS = (DigestAdvertisement, DigestOffer)


def _exchanges(events):
    """(request, reply, drained) per advertisement answered on the engine wire.

    A live round trip reports its request leg and its reply leg as two
    consecutive advertisement events (a pull the handler made is reported
    before them); a drained request's reply is the next advertisement
    event, sent back over the same link by the drained request's handler.
    """
    exchanges, drained = [], None
    for event in events:
        if type(event.message) not in _ADVERTISEMENTS:
            continue
        if event.op == OP_REPLY:
            exchanges.append((request.message, event.message, False))
        elif drained is not None and event.op == OP_SEND and (
            (event.sender, event.receiver) == (drained.receiver, drained.sender)
        ):
            exchanges.append((drained.message, event.message, True))
        request = event
        drained = event if event.op == OP_DRAIN and event.status == DELIVERED else None
    return exchanges


def test_no_live_reply_on_the_engine_wire_echoes_its_request():
    simulation, _ = build_simulation(SPEC)
    events = []
    simulation.network.transport.add_observer(events.append)
    simulation.bootstrap_random_views()
    simulation.run_lazy(SPEC.lazy_cycles)
    exchanges = _exchanges(events)
    live = [(request, reply) for request, reply, drained in exchanges if not drained]
    assert {type(request) for request, _ in live} == set(_ADVERTISEMENTS)
    assert all(type(request) is type(reply) for request, reply in live)
    assert not [pair for pair in live if _echoes(*pair)]
    # A drained request describes its sender as it was: its reply keeps them.
    assert any(_echoes(request, reply) for request, reply, drained in exchanges if drained)


def test_no_reply_in_a_service_smoke_trace_echoes_its_request(smoke_events):
    """Each reply leg is paired with the next delivered request leg of the
    same link and message type: the replier records its reply when it sends
    it, the requester its request when that reply arrives."""
    waiting = {}
    pairs = []
    for event in smoke_events:
        mtype = type(event.message)
        if mtype not in _ADVERTISEMENTS:
            continue
        if event.op == OP_REPLY:
            waiting.setdefault((event.receiver, event.sender, mtype), []).append(event.message)
        elif event.op == OP_REQUEST and event.status == DELIVERED:
            pairs.append((event.message, waiting[event.sender, event.receiver, mtype].pop(0)))
    assert pairs and not any(waiting.values())
    assert {type(request) for request, _ in pairs} == set(_ADVERTISEMENTS)
    assert not [pair for pair in pairs if _echoes(*pair)]


def test_to_keeps_the_order_of_every_other_digest(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:5]]
    descriptors = [(digest.user_id, digest.version) for digest in digests]
    receiver = digests[2].user_id
    kept = tuple(descriptors[:2] + descriptors[3:])
    assert DigestAdvertisement.to(receiver, descriptors) == DigestAdvertisement(kept)
    assert DigestOffer.to(receiver, digests) == DigestOffer(kept)


def test_to_leaves_out_each_digest_shown_at_the_same_or_a_newer_version(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:4]]
    first, second, third, fourth = digests
    older = type(second)(second.user_id, second.version - 1, second.bloom)
    newer = type(third)(third.user_id, third.version + 1, third.bloom)
    shown = _described(DigestPullReply((first, older, newer)))
    descriptors = _described(DigestPullReply(tuple(digests)))
    kept = ((second.user_id, second.version),)
    assert DigestAdvertisement.to(fourth.user_id, descriptors, shown) == DigestAdvertisement(kept)
    assert DigestOffer.to(fourth.user_id, digests, shown) == DigestOffer(kept)


def test_a_provider_answers_from_its_own_digest_and_entries_only(warm_simulation):
    """Exact version only; a random-view member's row is not held (the view
    keeps descriptors), so a pull for it is left out of the reply."""
    node = next(
        node for node in warm_simulation.nodes.values()
        if set(node.random_view.member_ids()) - set(node.personal_network.member_ids())
    )
    own = node.own_digest()
    entry = node.personal_network.ranked_entries()[0].digest
    member = next(
        warm_simulation.nodes[user_id].own_digest()
        for user_id in node.random_view.member_ids()
        if user_id not in node.personal_network
    )
    for digest in (own, entry):
        assert node.held_digest(digest.user_id, digest.version) is digest
        assert node.held_digest(digest.user_id, digest.version - 1) is None
        assert node.held_digest(digest.user_id, digest.version + 1) is None
    assert node.held_digest(member.user_id, member.version) is None
    asked = (
        (member.user_id, member.version),
        (own.user_id, own.version + 1),
        (own.user_id, own.version),
        (entry.user_id, entry.version - 1),
        (entry.user_id, entry.version),
    )
    asker = next(uid for uid in warm_simulation.nodes if uid != node.node_id)
    reply = node.handle_message(Envelope(asker, node.node_id, DigestPullRequest(asked), None, True))
    assert reply == DigestPullReply((own, entry))


def _pulls(provider):
    """An honest pull of one offer's worth of descriptors (only the first,
    the provider's own, is held) and the two forgeries a provider refuses:
    one descriptor named twice, and one more descriptor than an offer
    holds."""
    user_id, version = provider.own_descriptor()
    limit = provider.config.exchange_size + 1
    honest = DigestPullRequest(tuple((user_id, version + v) for v in range(limit)))
    forged = {
        "repeated": DigestPullRequest(((user_id, version), (user_id, version))),
        "oversized": DigestPullRequest(tuple((user_id, version + v) for v in range(limit + 1))),
    }
    return honest, forged


@pytest.mark.parametrize("forgery", ["repeated", "oversized"])
def test_an_engine_provider_refuses_a_forged_pull(warm_simulation, forgery):
    asker, provider = list(warm_simulation.nodes.values())[:2]
    honest, forged = _pulls(provider)
    transport = warm_simulation.network.transport
    with pytest.raises(ValueError, match="forged pull"):
        transport.request(asker.node_id, provider.node_id, forged[forgery])
    dispatch = transport.request(asker.node_id, provider.node_id, honest)
    assert dispatch.reply == DigestPullReply((provider.own_digest(),))


def test_a_service_provider_answers_no_forged_pull_and_keeps_serving(caplog):
    simulation = converged_simulation(build_demo_workload(num_users=8, num_queries=1, seed=5), 3)
    parked = 3600.0
    runtime = ServiceRuntime(
        simulation, ServiceConfig(gossip_interval=parked, eager_interval=parked, rpc_timeout=0.1)
    )
    asker, provider = list(simulation.nodes)[:2]
    honest, forged = _pulls(simulation.nodes[provider])

    async def go():
        await runtime.start()
        try:
            service = runtime.services[asker]
            return [
                await service.request(asker, provider, pull)
                for pull in (*forged.values(), honest)
            ]
        finally:
            await runtime.stop()

    with caplog.at_level(logging.ERROR, logger="repro.service.runtime"):
        *refused, answered = asyncio.run(go())
    assert [dispatch.status for dispatch in refused] == [DROPPED, DROPPED]
    refusals = [record.exc_info[0] for record in caplog.records if record.exc_info]
    assert refusals == [ValueError, ValueError]
    assert answered.status == DELIVERED
    assert _described(answered.reply) == (simulation.nodes[provider].own_descriptor(),)
    assert [event.op for event in runtime.trace.events if event.op == OP_REPLY] == [OP_REPLY]
