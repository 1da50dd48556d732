"""No digest advertisement carries what its receiver would drop unread.

The receiver of a :class:`~repro.simulator.transport.DigestAdvertisement`
drops its own digest unread (``integrate_effects`` skips it, and
``RandomView.merge`` skips the owner), and the initiator of an exchange
drops every reply digest whose user its request carried at the same or a
newer version (it sent that digest from its own stored replicas or view).
So :meth:`DigestAdvertisement.to` leaves both out, as Cyclon drops the
partner's entry before sending.  A reply to a request the delay queue held
keeps the echoes: that request describes its sender as it was cycles ago.
The senders draw their sample first and filter after, so every RNG stream,
and with it every view, replica, query result and message count, is that
of a run that sends the digests: only the two digest byte kinds fall.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceTrace
from repro.service.cli import main as service_main
from repro.simtest import ChurnEvent, DynamicsSpec, ScenarioSpec, run_scenario
from repro.simtest import runner as simtest_runner
from repro.simtest.runner import build_simulation
from repro.simulator.engine import PHASE_EAGER, PHASE_LAZY
from repro.simulator.stats import KIND_DIGESTS, KIND_RANDOM_VIEW
from repro.simulator.transport import (
    DELIVERED,
    OP_DRAIN,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    VIEW_PERSONAL,
    VIEW_RANDOM,
    DigestAdvertisement,
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
    churn=(
        ChurnEvent(PHASE_LAZY, 2, fraction=0.1, rejoin_after=3),
        ChurnEvent(PHASE_EAGER, 2, fraction=0.1, rejoin_after=4, mode="crash"),
    ),
    dynamics=DynamicsSpec(at_cycle=4, change_fraction=0.3),
    seed=5,
)


#: ``DigestAdvertisement.to`` as committed, before any test patches it.
TO = DigestAdvertisement.to


def _run(monkeypatch, to=None):
    """``SPEC``'s simtest fingerprint, plus its ``messages_by_kind``, with
    ``DigestAdvertisement.to`` replaced by ``to`` when one is given."""
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
        if to is not None:
            patch.setattr(DigestAdvertisement, "to", classmethod(to))
        result = run_scenario(SPEC)
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
    _assert_digest_bytes_only_fall(
        _run(monkeypatch),
        _run(monkeypatch, lambda cls, receiver_id, digests, view, shown=(): cls(tuple(digests), view)),
    )


def test_leaving_the_requests_digests_out_of_a_reply_moves_digest_bytes_only(monkeypatch):
    _assert_digest_bytes_only_fall(
        _run(monkeypatch),
        _run(monkeypatch, lambda cls, receiver_id, digests, view, shown=(): TO(receiver_id, digests, view)),
    )


def _advertised_to_self(events):
    """Advertisements seen, and those carrying their receiver's digest."""
    seen, offending = 0, []
    for event in events:
        if type(event.message) is DigestAdvertisement:
            seen += 1
            if any(digest.user_id == event.receiver for digest in event.message.digests):
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
def smoke_events(tmp_path_factory):
    """The wire events of a ``service --smoke`` run, reloaded from its trace."""
    path = tmp_path_factory.mktemp("smoke") / "smoke.trace"
    assert service_main(["--smoke", "--trace", str(path)]) == 0
    return list(ServiceTrace.load(str(path)).events)


def test_a_service_smoke_trace_carries_no_digest_to_its_own_subject(smoke_events):
    seen, offending = _advertised_to_self(smoke_events)
    assert seen > 0 and not offending


def _echoes(request, reply):
    """The digests of ``reply`` whose user ``request`` carried at the same or
    a newer version."""
    shown = {digest.user_id: digest.version for digest in request.digests}
    return [
        digest for digest in reply.digests
        if shown.get(digest.user_id, -1) >= digest.version
    ]


def _exchanges(events):
    """(request, reply, drained) per advertisement answered on the engine wire.

    A live round trip reports its request leg and its reply leg as two
    consecutive events; a drained request's reply is the next advertisement
    event, sent back over the same link by the drained request's handler.
    """
    exchanges, drained = [], None
    for event in events:
        if type(event.message) is not DigestAdvertisement:
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
    assert {request.view for request, _ in live} == {VIEW_PERSONAL, VIEW_RANDOM}
    assert not [pair for pair in live if _echoes(*pair)]
    # A drained request describes its sender as it was: its reply keeps them.
    assert any(_echoes(request, reply) for request, reply, drained in exchanges if drained)


def test_no_reply_in_a_service_smoke_trace_echoes_its_request(smoke_events):
    """Each reply leg is paired with the next delivered request leg of the
    same link and view: the replier records its reply when it sends it, the
    requester its request when that reply arrives."""
    waiting = {}
    pairs = []
    for event in smoke_events:
        if type(event.message) is not DigestAdvertisement:
            continue
        if event.op == OP_REPLY:
            link = (event.receiver, event.sender, event.message.view)
            waiting.setdefault(link, []).append(event.message)
        elif event.op == OP_REQUEST and event.status == DELIVERED:
            link = (event.sender, event.receiver, event.message.view)
            pairs.append((event.message, waiting[link].pop(0)))
    assert pairs and not any(waiting.values())
    assert {request.view for request, _ in pairs} == {VIEW_PERSONAL, VIEW_RANDOM}
    assert not [pair for pair in pairs if _echoes(*pair)]


def test_to_keeps_the_order_of_every_other_digest(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:5]]
    advertisement = DigestAdvertisement.to(digests[2].user_id, digests, VIEW_RANDOM)
    assert advertisement == DigestAdvertisement(tuple(digests[:2] + digests[3:]), VIEW_RANDOM)


def test_to_leaves_out_each_digest_shown_at_the_same_or_a_newer_version(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:4]]
    first, second, third, fourth = digests
    older = type(second)(second.user_id, second.version - 1, second.bloom)
    newer = type(third)(third.user_id, third.version + 1, third.bloom)
    shown = (first, older, newer)
    advertisement = DigestAdvertisement.to(fourth.user_id, digests, VIEW_PERSONAL, shown)
    assert advertisement == DigestAdvertisement((second,), VIEW_PERSONAL)
