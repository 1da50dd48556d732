"""Unit tests for the message-passing transport layer."""

from __future__ import annotations

import pytest

from repro.gossip.sizes import (
    DIGEST_BYTES,
    TAGGING_ACTION_BYTES,
    USER_ID_BYTES,
    VERSION_BYTES,
    descriptor_message_size,
    digest_message_size,
    partial_result_size,
    remaining_list_size,
    tagging_actions_size,
    total_bytes,
)
from repro.p3q.config import P3QConfig
from repro.p3q.node import P3QNode
from repro.p3q.query import PartialResult
from repro.simulator.conditions import (
    AsymmetrySpec,
    Condition,
    DegradedLinks,
    Delay,
    Loss,
    NatBlock,
    PartitionCut,
    PartitionSpec,
)
from repro.simulator.effects import drive
from repro.simulator.network import Network
from repro.simulator.stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_PARTIAL_RESULT,
    KIND_RANDOM_VIEW,
)
from repro.simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    OP_DRAIN,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    REPLY_DROPPED,
    UNREACHABLE,
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    DirectTransport,
    FullProfilePush,
    FullProfileRequest,
    QueryResult,
    RemainingReturn,
    Transport,
)


@pytest.fixture()
def pair(tiny_dataset):
    """Two wired nodes plus their network (direct transport)."""
    config = P3QConfig(
        network_size=4, storage=2, random_view_size=3, digest_bits=1_024, digest_hashes=4, seed=3
    )
    network = Network()
    nodes = {}
    for profile in tiny_dataset.profiles():
        node = P3QNode(profile, config)
        nodes[node.node_id] = node
        network.add_node(node)
    return network, nodes


def _digest_ad(node):
    return DigestAdvertisement(descriptors=(node.own_descriptor(),))


class TestMessageCatalogue:
    def test_messages_are_frozen(self, pair):
        _, nodes = pair
        message = _digest_ad(nodes[0])
        with pytest.raises(AttributeError):
            message.descriptors = ()

    def test_advertisement_kind_follows_view(self, pair):
        _, nodes = pair
        digest = nodes[0].own_digest()
        assert _digest_ad(nodes[0]).kind == KIND_RANDOM_VIEW
        descriptors = ((digest.user_id, digest.version),)
        assert DigestOffer(descriptors=descriptors).kind == KIND_DIGESTS
        assert DigestPullRequest(descriptors=descriptors).kind == KIND_DIGESTS
        assert DigestPullReply(digests=(digest,)).kind == KIND_DIGESTS

    def test_control_messages_have_no_kind(self):
        assert CommonItemsRequest(subject_id=1, items=frozenset({2})).kind is None
        assert FullProfileRequest(subject_id=1).kind is None

    def test_none_payload_replies_are_not_accountable(self):
        assert not CommonItemsReply(subject_id=1, actions=None).accountable
        assert not FullProfilePush(subject_id=1, profile=None).accountable
        assert CommonItemsReply(subject_id=1, actions=frozenset()).accountable


class TestTotalBytes:
    def test_sizes_share_the_paper_cost_model(self, pair, tiny_dataset):
        _, nodes = pair
        ad = DigestAdvertisement(descriptors=(nodes[0].own_descriptor(), nodes[1].own_descriptor()))
        assert total_bytes(ad) == descriptor_message_size(2) == 2 * (USER_ID_BYTES + VERSION_BYTES)
        pulled = DigestPullReply(digests=(nodes[0].own_digest(), nodes[1].own_digest()))
        assert total_bytes(pulled) == digest_message_size(2) == 2 * (DIGEST_BYTES + USER_ID_BYTES)

        profile = tiny_dataset.profile(0)
        push = FullProfilePush(subject_id=0, profile=profile)
        assert total_bytes(push) == tagging_actions_size(len(profile))

        actions = frozenset(profile.actions)
        reply = CommonItemsReply(subject_id=0, actions=actions)
        assert total_bytes(reply) == len(actions) * TAGGING_ACTION_BYTES

        partial = PartialResult(query_id=1, sender=0, scores={1: 2.0, 2: 1.0}, contributors=(0, 1), cycle=0)
        assert total_bytes(QueryResult(partial=partial)) == partial_result_size(2, 2)

        ret = RemainingReturn(query_id=1, remaining=(1, 2, 3))
        assert total_bytes(ret) == remaining_list_size(3)

    def test_control_and_failure_messages_are_free(self):
        assert total_bytes(CommonItemsRequest(subject_id=1, items=frozenset({1}))) == 0
        assert total_bytes(FullProfileRequest(subject_id=1)) == 0
        assert total_bytes(CommonItemsReply(subject_id=1, actions=None)) == 0
        assert total_bytes(FullProfilePush(subject_id=1, profile=None)) == 0

    def test_unknown_message_type_rejected(self):
        with pytest.raises(TypeError):
            total_bytes(object())


class TestDirectTransport:
    def test_request_round_trip_and_accounting(self, pair):
        network, nodes = pair
        items = frozenset(nodes[0].profile.items)
        dispatch = network.transport.request(
            0, 1, CommonItemsRequest(subject_id=1, items=items)
        )
        assert dispatch.status == DELIVERED
        assert dispatch.reply is not None
        assert dispatch.reply.actions  # users 0 and 1 share items
        # One accounted message: the reply (requests are free control traffic).
        assert network.stats.total_messages() == 1
        assert network.stats.total_bytes(KIND_COMMON_ITEMS) == total_bytes(dispatch.reply)
        # Charged to the replier: tagged with a query id, it lands at the requester.
        network.transport.request(
            0, 1, CommonItemsRequest(subject_id=1, items=items), query_id=7
        )
        assert network.stats.query_receivers(7, KIND_COMMON_ITEMS) == {0}

    def test_offline_receiver_is_unreachable(self, pair):
        network, nodes = pair
        network.depart([1])
        dispatch = network.transport.request(0, 1, FullProfileRequest(subject_id=1))
        assert dispatch.status == UNREACHABLE
        assert network.stats.total_messages() == 0

    def test_receiver_without_handler_is_unreachable(self, pair):
        network, _ = pair
        from repro.simulator.node import Node

        network.add_node(Node(99))
        dispatch = network.transport.request(0, 99, FullProfileRequest(subject_id=0))
        assert dispatch.status == UNREACHABLE

    def test_one_way_send_delivers_partial_results(self, pair):
        network, nodes = pair
        from repro.data.queries import Query

        query = Query(query_id=7, querier=0, tags=(100,))
        # Node 1 is an unstored neighbour, so the session waits for its partial.
        nodes[0].personal_network.consider(1, 1.0, nodes[1].own_digest())
        session = nodes[0].issue_query(query)
        assert not session.closed
        partial = PartialResult(query_id=7, sender=1, scores={5: 1.0}, contributors=(1,), cycle=1)
        status = network.transport.send(1, 0, QueryResult(partial=partial), query_id=7)
        assert status == DELIVERED
        assert network.stats.query_bytes(7).get(KIND_PARTIAL_RESULT, 0) > 0
        session.close_cycle(1)
        assert 1 in session.profiles_used

    def test_pending_count_is_zero(self, pair):
        network, _ = pair
        assert network.transport.pending_count() == 0
        assert network.transport.drain() == 0


class TestLossyTransport:
    def test_validation(self):
        with pytest.raises(ValueError):
            Transport(loss_rate=1.5)
        with pytest.raises(ValueError):
            Transport(delay_cycles=-1)

    @pytest.mark.parametrize("rate", [-0.01, 1.01, float("nan"), float("inf"), -float("inf")])
    def test_out_of_range_and_non_finite_loss_rates_rejected(self, rate):
        with pytest.raises(ValueError, match="loss_rate"):
            Transport(loss_rate=rate)
        with pytest.raises(ValueError, match="loss_rate"):
            Transport(delay_cycles=1, loss_rate=rate)

    @pytest.mark.parametrize("rate", ["0.5", None, True, [0.5]])
    def test_non_numeric_loss_rates_rejected(self, rate):
        with pytest.raises(TypeError, match="loss_rate"):
            Transport(loss_rate=rate)

    @pytest.mark.parametrize("delay", [-1, -100])
    def test_negative_delays_rejected(self, delay):
        with pytest.raises(ValueError, match="delay_cycles"):
            Transport(delay_cycles=delay)

    @pytest.mark.parametrize("delay", [1.5, 2.0, "3", None, True])
    def test_non_integer_delays_rejected(self, delay):
        """A float delay would only explode later inside randint; the
        constructor is where the error belongs."""
        with pytest.raises(TypeError, match="delay_cycles"):
            Transport(delay_cycles=delay)

    def test_boundary_rates_accepted(self):
        assert Transport(loss_rate=0.0).conditions == ()
        assert Transport(loss_rate=1.0).condition(Loss).rate == 1.0
        assert Transport(loss_rate=0).conditions == ()  # int zero accepted
        assert Transport(delay_cycles=0).conditions == ()

    def test_full_loss_drops_everything(self, pair, tiny_dataset):
        config = P3QConfig(
            network_size=4, storage=2, random_view_size=3,
            digest_bits=1_024, digest_hashes=4, seed=3,
        )
        network = Network(transport=Transport(loss_rate=1.0, seed=1))
        nodes = {}
        for profile in tiny_dataset.profiles():
            node = P3QNode(profile, config)
            nodes[node.node_id] = node
            network.add_node(node)
        dispatch = network.transport.request(
            0, 1, CommonItemsRequest(subject_id=1, items=frozenset(nodes[0].profile.items))
        )
        assert dispatch.status == DROPPED
        assert dispatch.reply is None

    def test_drop_stream_is_deterministic(self):
        a = Loss(0.5, seed=9)
        b = Loss(0.5, seed=9)
        message = FullProfileRequest(subject_id=1)
        rolls_a = [a.drops(message, 0, 1) for _ in range(50)]
        rolls_b = [b.drops(message, 0, 1) for _ in range(50)]
        assert rolls_a == rolls_b
        assert any(rolls_a) and not all(rolls_a)

    def test_zero_rate_consumes_no_randomness(self):
        """A zero rate builds no condition at all: there is no stream to
        advance, and the legs never reach condition evaluation."""
        transport = Transport(loss_rate=0.0, seed=9)
        assert transport.conditions == ()
        assert not transport._dropped(FullProfileRequest(subject_id=1), 0, 1)

    def test_dropped_reply_is_distinguished_from_dropped_request(self, tiny_dataset):
        """A lost reply must not look like a lost request: the receiver's
        side effects already happened, so callers must not retry."""

        class ScriptedDrops(Condition):
            def __init__(self, script):
                self.script = list(script)

            def drops(self, message, sender, receiver):
                return self.script.pop(0) if self.script else False

        config = P3QConfig(
            network_size=4, storage=2, random_view_size=3,
            digest_bits=1_024, digest_hashes=4, seed=3,
        )
        # Script: request leg delivered (False), reply leg dropped (True).
        transport = Transport()
        transport.conditions = (ScriptedDrops([False, True]),)
        network = Network(transport=transport)
        nodes = {}
        for profile in tiny_dataset.profiles():
            node = P3QNode(profile, config)
            nodes[node.node_id] = node
            network.add_node(node)
        items = frozenset(nodes[0].profile.items)
        dispatch = network.transport.request(
            0, 1, CommonItemsRequest(subject_id=1, items=items)
        )
        assert dispatch.status == REPLY_DROPPED
        assert dispatch.reply is None

    def test_reply_dropped_forward_hands_off_the_remaining_list(self, synthetic_dataset):
        """Eager semantics: when the destination processed the forward but
        the return was lost, the initiator must NOT keep (and re-forward)
        the list -- the destination already took its share."""
        from repro.data.queries import QueryWorkloadGenerator
        from repro.p3q.protocol import P3QSimulation

        class DropsReturns(Condition):
            """Drops exactly the replies to QueryForward messages."""

            def drops(self, message, sender, receiver):
                return isinstance(message, RemainingReturn)

        config = P3QConfig(
            network_size=20, storage=5, random_view_size=5,
            digest_bits=2_048, digest_hashes=5, seed=5,
        )
        simulation = P3QSimulation(synthetic_dataset.copy(), config)
        simulation.network.transport.conditions = (DropsReturns(),)
        simulation.warm_start()
        query = QueryWorkloadGenerator(simulation.dataset, seed=9).query_for(
            simulation.dataset.user_ids[0]
        )
        node = simulation.nodes[query.querier]
        session = node.issue_query(query)
        if not session.remaining:
            pytest.skip("querier stores her whole network at this storage budget")
        before = list(session.remaining)
        returned = drive(
            simulation.eager.gossip_query_effects(node, query, before, cycle=1),
            simulation.network,
        )
        # The destination processed the list (its kept share and partial
        # result happened), the return was dropped: responsibility is NOT
        # retained by the initiator.
        assert returned == []


class TestLatencyTransport:
    def _network(self, tiny_dataset, transport):
        config = P3QConfig(
            network_size=4, storage=2, random_view_size=3,
            digest_bits=1_024, digest_hashes=4, seed=3,
        )
        network = Network(transport=transport)
        nodes = {}
        for profile in tiny_dataset.profiles():
            node = P3QNode(profile, config)
            nodes[node.node_id] = node
            network.add_node(node)
        return network, nodes

    def test_deferrable_messages_queue_and_drain(self, tiny_dataset):
        transport = Transport(delay_cycles=3, seed=2)
        network, nodes = self._network(tiny_dataset, transport)
        # Try until a non-zero delay is rolled (delays are uniform on 0..3).
        deferred = None
        for _ in range(16):
            dispatch = network.transport.request(
                0, 1, _digest_ad(nodes[0])
            )
            if dispatch.status == DEFERRED:
                deferred = dispatch
                break
        assert deferred is not None
        assert transport.pending_count() > 0
        # Advancing the clock past the max delay flushes the queue; the
        # deferred exchange's reply routes back to node 0 asynchronously.
        network.current_cycle += 4
        assert transport.drain() >= 1
        # The partner processed the advertisement when it drained (her view
        # was empty, so the initiator's digest must now be in it).
        assert 0 in nodes[1].random_view

    def test_control_requests_are_never_deferred(self, tiny_dataset):
        transport = Transport(delay_cycles=5, seed=2)
        network, nodes = self._network(tiny_dataset, transport)
        for _ in range(20):
            dispatch = network.transport.request(
                0, 1, CommonItemsRequest(subject_id=1, items=frozenset(nodes[0].profile.items))
            )
            assert dispatch.status == DELIVERED

    def test_delay_stream_is_deterministic(self):
        a = Delay(4, seed=11)
        b = Delay(4, seed=11)
        message = RemainingReturn(query_id=1, remaining=(1,))
        assert [a.delay(message, 0, 1) for _ in range(50)] == [
            b.delay(message, 0, 1) for _ in range(50)
        ]

    def test_message_to_departed_node_is_lost(self, tiny_dataset):
        transport = Transport(delay_cycles=2, seed=4)
        network, nodes = self._network(tiny_dataset, transport)
        deferred = False
        for _ in range(16):
            dispatch = network.transport.request(0, 1, _digest_ad(nodes[0]))
            if dispatch.status == DEFERRED:
                deferred = True
                break
        assert deferred
        network.depart([1])
        network.current_cycle += 3
        assert transport.drain() == 0  # receiver gone: message lost silently
        assert transport.pending_count() == 0


class TestObservers:
    """WireEvent observation: passive, complete, zero-cost when absent."""

    def test_round_trip_emits_request_and_reply_events(self, pair):
        network, nodes = pair
        events = []
        network.transport.add_observer(events.append)
        dispatch = network.transport.request(
            0, 1, CommonItemsRequest(subject_id=1, items=frozenset(nodes[0].profile.items))
        )
        assert dispatch.status == DELIVERED
        assert [(e.op, e.status, e.sender, e.receiver) for e in events] == [
            (OP_REQUEST, DELIVERED, 0, 1),
            (OP_REPLY, DELIVERED, 1, 0),
        ]
        assert all(e.accounted for e in events)

    def test_unreachable_send_is_observed_unaccounted(self, pair):
        network, _nodes = pair
        events = []
        network.transport.add_observer(events.append)
        network.depart([1])
        status = network.transport.send(0, 1, RemainingReturn(query_id=1, remaining=(2,)))
        assert status == UNREACHABLE
        assert len(events) == 1
        assert events[0].op == OP_SEND
        assert events[0].status == UNREACHABLE
        assert events[0].accounted is False

    def test_drop_and_drain_events_on_stochastic_transports(self, tiny_dataset):
        config = P3QConfig(
            network_size=4, storage=2, random_view_size=3,
            digest_bits=1_024, digest_hashes=4, seed=3,
            loss_rate=1.0,
        )
        network = Network(transport=Transport(loss_rate=1.0, seed=1))
        nodes = {}
        for profile in tiny_dataset.profiles():
            node = P3QNode(profile, config)
            nodes[node.node_id] = node
            network.add_node(node)
        events = []
        network.transport.add_observer(events.append)
        network.transport.request(0, 1, _digest_ad(nodes[0]))
        assert events[-1].status == DROPPED
        assert events[-1].accounted  # a lost message still cost its sender

    def test_deferred_and_drained_events(self, tiny_dataset):
        config = P3QConfig(
            network_size=4, storage=2, random_view_size=3,
            digest_bits=1_024, digest_hashes=4, seed=3,
            delay_cycles=3,
        )
        transport = Transport(delay_cycles=3, seed=2)
        network = Network(transport=transport)
        nodes = {}
        for profile in tiny_dataset.profiles():
            node = P3QNode(profile, config)
            nodes[node.node_id] = node
            network.add_node(node)
        events = []
        transport.add_observer(events.append)
        for _ in range(16):
            dispatch = network.transport.request(0, 1, _digest_ad(nodes[0]))
            if dispatch.status == DEFERRED:
                break
        assert any(e.op == OP_REQUEST and e.status == DEFERRED for e in events)
        network.current_cycle += 4
        transport.drain()
        assert any(e.op == OP_DRAIN and e.status == DELIVERED for e in events)


class TestMakeTransport:
    def test_builds_each_flavour(self):
        """The condition tuple is a function of the five config values."""

        def kinds(**config):
            return [type(c) for c in Transport(**config).conditions]

        assert DirectTransport is Transport
        assert kinds() == []
        assert kinds(loss_rate=0.3, seed=5) == [Loss]
        assert kinds(delay_cycles=2, loss_rate=0.1, seed=5) == [Loss, Delay]
        full = Transport(
            loss_rate=0.1,
            delay_cycles=2,
            partition=PartitionSpec(split_cycle=1, heal_cycle=2),
            asymmetry=AsymmetrySpec(
                degraded_fraction=0.5, link_loss_rate=0.3, nat_fraction=0.1
            ),
            seed=5,
        )
        assert [type(c) for c in full.conditions] == [
            NatBlock, PartitionCut, Loss, Delay, DegradedLinks,
        ]
        assert full.condition(Loss).rate == 0.1
        assert full.condition(Delay).cycles == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            P3QConfig(loss_rate=2.0)
        with pytest.raises(ValueError):
            P3QConfig(delay_cycles=-1)
        config = P3QConfig(loss_rate=0.1, delay_cycles=3)
        assert (config.loss_rate, config.delay_cycles) == (0.1, 3)
        # Conditions compose freely: no combination names a run that the
        # wire would not perform.
        P3QConfig(loss_rate=0.2, partition=PartitionSpec())
        P3QConfig(delay_cycles=2, asymmetry=AsymmetrySpec(nat_fraction=0.1))


# ------------------------------------------------------------ zero conditions


def _zero_condition_subsets():
    zero_forms = {
        "loss_rate": 0.0,
        "delay_cycles": 0,
        "asymmetry": AsymmetrySpec(),
        # Never zero, but its window lies beyond the run: it must impose
        # nothing and deal no components.
        "partition": PartitionSpec(components=2, split_cycle=10_000, heal_cycle=10_001),
    }
    names = sorted(zero_forms)
    for mask in range(1 << len(names)):
        chosen = [name for bit, name in enumerate(names) if mask >> bit & 1]
        yield pytest.param(
            {name: zero_forms[name] for name in chosen}, id="+".join(chosen) or "none"
        )


class TestZeroConditions:
    """Every zero form of every condition, in every combination, IS the
    direct wire: same fingerprint as ``Transport()`` on the golden scenario
    and not one condition stream created or advanced."""

    @pytest.mark.parametrize("overrides", _zero_condition_subsets())
    def test_zero_subsets_are_the_direct_wire(self, overrides):
        import json

        from test_transport_equivalence import GOLDEN_PATH, _fingerprint, run_simulation

        simulation, eager_cycles = run_simulation(overrides)
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert _fingerprint(simulation, eager_cycles) == golden
        # Zero rates build no condition (so no stream exists); the idle
        # partition is carried but never dealt its seeded components.
        conditions = simulation.network.transport.conditions
        if "partition" in overrides:
            (cut,) = conditions
            assert isinstance(cut, PartitionCut)
            assert cut._components is None and cut.cut_drops == 0
        else:
            assert conditions == ()


# ----------------------------------------------------------- evaluation order


class _Recording(Condition):
    """A scripted condition that logs every question the transport asks."""

    def __init__(self, name, log, blocks=False, drops=False, delay=0, holds=()):
        self.name, self.log = name, log
        self._blocks, self._drops, self._delay = blocks, drops, delay
        self._holds = list(holds)

    def blocks_inbound(self, sender, receiver):
        self.log.append(("blocks", self.name, sender, receiver))
        return self._blocks

    def drops(self, message, sender, receiver):
        self.log.append(("drops", self.name, sender, receiver))
        return self._drops

    def delay(self, message, sender, receiver):
        self.log.append(("delay", self.name, sender, receiver))
        return self._delay

    def hold(self, envelope):
        self.log.append(("hold", self.name, envelope.sender, envelope.receiver))
        return self._holds.pop(0) if self._holds else 0


class TestEvaluationOrder:
    """NAT block -> account -> cut -> loss -> link loss -> summed delay.

    The tuple order is pinned by ``test_builds_each_flavour``; this pins the
    order in which each leg consults the tuple, with recording fakes standing
    in for (nat, cut, loss, link).
    """

    NAMES = ("nat", "cut", "loss", "link")

    def _wire(self, pair, **scripts):
        network, nodes = pair
        log = []
        network.transport.conditions = tuple(
            _Recording(name, log, **scripts.get(name, {})) for name in self.NAMES
        )
        record = network.stats.record

        def recording_record(cycle, sender, receiver, *rest):
            log.append(("account", sender, receiver))
            record(cycle, sender, receiver, *rest)

        network.stats.record = recording_record
        return network, nodes, log

    def _asked(self, question, sender, receiver, names=NAMES):
        return [(question, name, sender, receiver) for name in names]

    def test_request_and_reply_legs(self, pair):
        network, nodes, log = self._wire(pair)
        dispatch = network.transport.request(0, 1, _digest_ad(nodes[0]))
        assert dispatch.status == DELIVERED and dispatch.reply is not None
        assert log == (
            self._asked("blocks", 0, 1)
            + [("account", 0, 1)]
            + self._asked("drops", 0, 1)
            + self._asked("delay", 0, 1)
            # Reply leg: accounted, then droppable; never blocked or delayed.
            + [("account", 1, 0)]
            + self._asked("drops", 1, 0)
        )

    def test_inbound_block_precedes_accounting(self, pair):
        network, nodes, log = self._wire(pair, nat={"blocks": True})
        assert network.transport.request(0, 1, _digest_ad(nodes[0])).status == UNREACHABLE
        assert network.transport.send(0, 1, RemainingReturn(1, (2,))) == UNREACHABLE
        assert log == [("blocks", "nat", 0, 1)] * 2

    def test_a_drop_short_circuits_later_conditions(self, pair):
        network, nodes, log = self._wire(pair, loss={"drops": True})
        assert network.transport.request(0, 1, _digest_ad(nodes[0])).status == DROPPED
        assert log == (
            self._asked("blocks", 0, 1)
            + [("account", 0, 1)]
            + self._asked("drops", 0, 1, names=("nat", "cut", "loss"))
        )

    def test_send_sums_delays_and_drain_holds_until_released(self, pair):
        network, nodes, log = self._wire(
            pair, cut={"delay": 1, "holds": [2]}, link={"delay": 2}
        )
        transport = network.transport
        events = []
        transport.add_observer(events.append)
        assert transport.send(0, 1, RemainingReturn(1, (2,))) == DEFERRED
        assert log == (
            self._asked("blocks", 0, 1)
            + [("account", 0, 1)]
            + self._asked("drops", 0, 1)
            + self._asked("delay", 0, 1)
        )
        # Due after the *summed* delay, not before.
        network.current_cycle = 2
        assert transport.drain() == 0 and transport.pending_count() == 1
        del log[:]
        network.current_cycle = 3
        assert transport.drain() == 0  # due, but held two more cycles
        assert log == self._asked("hold", 0, 1)
        assert (events[-1].op, events[-1].status, events[-1].accounted) == (
            OP_DRAIN, DEFERRED, False,
        )
        network.current_cycle = 4
        assert transport.drain() == 0
        network.current_cycle = 5
        assert transport.drain() == 1 and transport.pending_count() == 0
        assert (events[-1].op, events[-1].status) == (OP_DRAIN, DELIVERED)
        # Accounted exactly once, at send time.
        assert log.count(("account", 0, 1)) == 0
