"""No digest advertisement carries its receiver's own digest.

The receiver of a :class:`~repro.simulator.transport.DigestAdvertisement`
drops its own digest unread (``integrate_effects`` skips it, and
``RandomView.merge`` skips the owner), so :meth:`DigestAdvertisement.to`
leaves it out, as Cyclon drops the partner's entry before sending.  The
senders draw their sample first and filter after, so every RNG stream, and
with it every view, replica, query result and message count, is that of a
run that sends the digest: only the two digest byte kinds fall.
"""

from __future__ import annotations

from repro.service import ServiceTrace
from repro.service.cli import main as service_main
from repro.simtest import ChurnEvent, DynamicsSpec, ScenarioSpec, run_scenario
from repro.simtest import runner as simtest_runner
from repro.simtest.runner import build_simulation
from repro.simulator.engine import PHASE_EAGER, PHASE_LAZY
from repro.simulator.stats import KIND_DIGESTS, KIND_RANDOM_VIEW
from repro.simulator.transport import VIEW_RANDOM, DigestAdvertisement

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


def _run(monkeypatch, sends_own_digest: bool):
    """``SPEC``'s simtest fingerprint, plus its ``messages_by_kind``."""
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
        if sends_own_digest:
            patch.setattr(
                DigestAdvertisement,
                "to",
                classmethod(lambda cls, receiver_id, digests, view: cls(tuple(digests), view)),
            )
        result = run_scenario(SPEC)
    assert result.ok, result.violation
    return result.fingerprint


def test_leaving_the_receivers_digest_out_moves_digest_bytes_only(monkeypatch):
    filtered = _run(monkeypatch, sends_own_digest=False)
    unfiltered = _run(monkeypatch, sends_own_digest=True)
    assert max(len(ids) for ids in filtered["stored"].values()) > SPEC.exchange_size
    fewer, more = filtered.pop("bytes_by_kind"), unfiltered.pop("bytes_by_kind")
    for kind in (KIND_DIGESTS, KIND_RANDOM_VIEW):
        assert fewer.pop(kind) < more.pop(kind)
    assert fewer == more
    fewer, more = filtered.pop("bytes_by_cycle"), unfiltered.pop("bytes_by_cycle")
    assert fewer.keys() == more.keys()
    assert all(fewer[cycle] <= more[cycle] for cycle in fewer)
    assert filtered == unfiltered


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


def test_a_service_smoke_trace_carries_no_digest_to_its_own_subject(tmp_path, capsys):
    path = tmp_path / "smoke.trace"
    assert service_main(["--smoke", "--trace", str(path)]) == 0
    capsys.readouterr()
    seen, offending = _advertised_to_self(ServiceTrace.load(str(path)).events)
    assert seen > 0 and not offending


def test_to_keeps_the_order_of_every_other_digest(warm_simulation):
    digests = [node.own_digest() for node in list(warm_simulation.nodes.values())[:5]]
    advertisement = DigestAdvertisement.to(digests[2].user_id, digests, VIEW_RANDOM)
    assert advertisement == DigestAdvertisement(tuple(digests[:2] + digests[3:]), VIEW_RANDOM)
