"""What an advertisement carries, and what a lazy exchange pulls.

A random-view swap is a :class:`~repro.simulator.transport.DigestAdvertisement`
of digest rows; a lazy exchange's advertisement is a
:class:`~repro.simulator.transport.DigestOffer` of ``(user_id, version)``
descriptors.  Neither carries what its receiver would drop unread: its own
digest (``integrate_effects`` skips it, ``RandomView.merge`` skips the
owner) or, in a reply, each digest whose user the request carried at the
same or a newer version (the initiator sent it from its own replicas or
view).  A reply to a request the delay queue held keeps those echoes: that
request describes its sender as it was cycles ago.  The senders draw their
sample first and filter after, so only the two digest byte kinds fall.

The receiver of an offer screens the descriptors at step 1 and pulls, in
one round trip to the provider, only the rows it reads and does not hold at
that exact version in its personal network or random view
(:meth:`P3QNode.held_digest`).  On a run with no loss and no delay that
changes ``personal_digests`` bytes and messages only: networks, replicas,
views and query results are those of a run that pulls every descriptor.
"""

from __future__ import annotations

import pytest

from repro.gossip.profile_exchange import LazyExchangeProtocol
from repro.service import ServiceTrace
from repro.service.cli import main as service_main
from repro.simtest import ChurnEvent, DynamicsSpec, ScenarioSpec, run_scenario
from repro.simtest import runner as simtest_runner
from repro.simtest.invariants import InvariantChecker, default_checkers
from repro.simtest.runner import build_simulation
from repro.simulator.engine import PHASE_EAGER, PHASE_LAZY
from repro.simulator.stats import KIND_DIGESTS, KIND_RANDOM_VIEW
from repro.simulator.transport import (
    DELIVERED,
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
#: only entries it does not store, which it never offers: every pull is
#: answered in full, and the pull rule can only move personal-digest traffic.
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

#: The filters as committed, before any test patches them.
AD_TO = DigestAdvertisement.to
OFFER_TO = DigestOffer.to


def _described(message):
    """``(user_id, version)`` of each digest a message advertises."""
    if type(message) in (DigestOffer, DigestPullRequest):
        return message.descriptors
    return tuple((digest.user_id, digest.version) for digest in message.digests)


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
            lambda cls, receiver_id, digests, shown=(): cls(tuple(digests))
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
            lambda cls, receiver_id, digests, shown=(): AD_TO(receiver_id, digests)
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
    reads what it asks for from those rows."""
    integrate = LazyExchangeProtocol.integrate_effects
    pull = LazyExchangeProtocol._pull_digests_effects
    rows = {}

    def integrating(protocol, receiver, provider_id, descriptors, query_id=None):
        descriptors = tuple(descriptors)
        rows[receiver.node_id, provider_id] = (
            (yield from pull(protocol, receiver, provider_id, list(descriptors), query_id))
            if descriptors else {}
        )
        return (yield from integrate(protocol, receiver, provider_id, descriptors, query_id))

    def already_pulled(protocol, receiver, provider_id, wanted, query_id=None):
        pulled = rows[receiver.node_id, provider_id]
        return {descriptor: pulled[descriptor] for descriptor in wanted if descriptor in pulled}
        yield  # a generator, like the pull it stands in for

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


class _PullHygiene(InvariantChecker):
    """Each pull, checked against its asker's state as the provider answers
    it (the provider's handler changes no state, so the asker's is the one
    it pulled from); each reply's length against its request's."""

    name = "pull-hygiene"

    def __init__(self) -> None:
        super().__init__()
        self.pulls = 0
        self.offending = []
        self.short = []
        self._asked = None

    def on_wire_event(self, event) -> None:
        message = event.message
        if type(message) is DigestPullRequest and event.op == OP_REQUEST:
            asker = self.ctx.simulation.nodes[event.sender]
            self.pulls += 1
            self._asked = message
            self.offending += [
                (event.sender, descriptor)
                for descriptor in message.descriptors
                if _dropped_at_step_1(asker, *descriptor)
                or asker.held_digest(*descriptor) is not None
            ]
        elif type(message) is DigestPullReply and event.op == OP_REPLY:
            if len(message.digests) != len(self._asked.descriptors):
                self.short.append((event.receiver, self._asked, message))


def test_no_engine_pull_names_a_read_or_held_digest_or_comes_back_short():
    hygiene = _PullHygiene()
    result = run_scenario(DIRECT_SPEC, checkers=default_checkers(DIRECT_SPEC) + [hygiene])
    assert result.ok, result.violation
    assert hygiene.pulls > 0
    assert not hygiene.offending
    assert not hygiene.short


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
    and each pull its nodes made that named a digest its asker had read or
    held when it asked."""
    path = tmp_path_factory.mktemp("smoke") / "smoke.trace"
    pull = LazyExchangeProtocol._pull_digests_effects
    offending = []

    def checked(protocol, receiver, provider_id, wanted, query_id=None):
        offending.extend(
            (receiver.node_id, descriptor)
            for descriptor in wanted
            if _dropped_at_step_1(receiver, *descriptor)
            or receiver.held_digest(*descriptor) is not None
        )
        return (yield from pull(protocol, receiver, provider_id, wanted, query_id))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LazyExchangeProtocol, "_pull_digests_effects", checked)
        assert service_main(["--smoke", "--trace", str(path)]) == 0
    return list(ServiceTrace.load(str(path)).events), offending


@pytest.fixture(scope="module")
def smoke_events(smoke_run):
    return smoke_run[0]


def test_a_service_smoke_trace_carries_no_digest_to_its_own_subject(smoke_events):
    seen, offending = _advertised_to_self(smoke_events)
    assert seen > 0 and not offending


def test_no_service_smoke_pull_names_a_read_or_held_digest(smoke_run):
    """Checked as each node asked; the reloaded trace then shows every pulled
    descriptor among those its provider offered the asker.  (A node records
    its request when the reply arrives, so an offer's request leg may follow
    the pull its receiver made while handling it.)"""
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
    assert pulls
    for event in pulls:
        for descriptor in event.message.descriptors:
            assert (event.receiver, event.sender, descriptor) in offered


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
    receiver = digests[2].user_id
    kept = digests[:2] + digests[3:]
    assert DigestAdvertisement.to(receiver, digests) == DigestAdvertisement(tuple(kept))
    assert DigestOffer.to(receiver, digests) == DigestOffer(
        tuple((digest.user_id, digest.version) for digest in kept)
    )


def test_to_leaves_out_each_digest_shown_at_the_same_or_a_newer_version(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:4]]
    first, second, third, fourth = digests
    older = type(second)(second.user_id, second.version - 1, second.bloom)
    newer = type(third)(third.user_id, third.version + 1, third.bloom)
    shown = (first, older, newer)
    assert DigestAdvertisement.to(fourth.user_id, digests, shown) == DigestAdvertisement(
        (second,)
    )
    assert DigestOffer.to(fourth.user_id, digests, _described(DigestAdvertisement(shown))) == (
        DigestOffer(((second.user_id, second.version),))
    )


def test_a_provider_answers_from_its_own_digest_entries_and_random_view(warm_simulation):
    node = next(
        node for node in warm_simulation.nodes.values()
        if set(node.random_view.member_ids()) - set(node.personal_network.member_ids())
    )
    own = node.own_digest()
    entry = node.personal_network.ranked_entries()[0].digest
    member = next(
        digest for digest in node.random_view.digests()
        if digest.user_id not in node.personal_network
    )
    for digest in (own, entry, member):
        assert node.held_digest(digest.user_id, digest.version) is digest
        assert node.held_digest(digest.user_id, digest.version - 1) is None
        assert node.held_digest(digest.user_id, digest.version + 1) is None
    asked = (
        (member.user_id, member.version),
        (own.user_id, own.version + 1),
        (own.user_id, own.version),
        (entry.user_id, entry.version - 1),
        (entry.user_id, entry.version),
    )
    asker = next(uid for uid in warm_simulation.nodes if uid != node.node_id)
    reply = node.handle_message(Envelope(asker, node.node_id, DigestPullRequest(asked), None, True))
    assert reply == DigestPullReply((member, own, entry))
