"""Unit tests for the adversarial network conditions.

Covers the hardened constructors (:class:`PartitionSpec`,
:class:`AsymmetrySpec`, :class:`Transport`, the ``P3QConfig`` fields
riding them), the partition-cut semantics at the transport level
(accounted drops, held in-flight envelopes, balanced seeded components) and
the asymmetric-link semantics (per-direction degradation, NAT inbound
blocks, extra loss/delay on degraded links).
"""

from __future__ import annotations

import pytest

from repro.p3q.config import P3QConfig
from repro.p3q.node import P3QNode
from repro.simulator.conditions import (
    AsymmetrySpec,
    DegradedLinks,
    NatBlock,
    PartitionCut,
    PartitionSpec,
    validate_fraction,
)
from repro.simulator.network import Network
from repro.simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    UNREACHABLE,
    VIEW_RANDOM,
    CommonItemsRequest,
    DigestAdvertisement,
    Envelope,
    Transport,
)


def _wire(transport, tiny_dataset):
    """A network of P3Q nodes over ``transport``; returns (network, nodes)."""
    config = P3QConfig(
        network_size=4,
        storage=2,
        random_view_size=3,
        digest_bits=1_024,
        digest_hashes=4,
        seed=3,
    )
    network = Network(transport=transport)
    nodes = {}
    for profile in tiny_dataset.profiles():
        node = P3QNode(profile, config)
        nodes[node.node_id] = node
        network.add_node(node)
    return network, nodes


def _digest_ad(node):
    return DigestAdvertisement(digests=(node.own_digest(),), view=VIEW_RANDOM)


def _cross_pair(transport, nodes):
    """A (sender, receiver) pair on opposite sides of the partition."""
    cut = transport.condition(PartitionCut)
    ids = sorted(nodes)
    for sender in ids:
        for receiver in ids:
            if sender != receiver and cut.component(sender) != cut.component(receiver):
                return sender, receiver
    raise AssertionError("no cross-component pair found")


def _same_pair(transport, nodes):
    cut = transport.condition(PartitionCut)
    ids = sorted(nodes)
    for sender in ids:
        for receiver in ids:
            if sender != receiver and cut.component(sender) == cut.component(receiver):
                return sender, receiver
    raise AssertionError("no same-component pair found")


# ----------------------------------------------------------------- validation


class TestValidateFraction:
    def test_accepts_boundaries(self):
        assert validate_fraction("f", 0) == 0.0
        assert validate_fraction("f", 1) == 1.0
        assert validate_fraction("f", 0.25) == 0.25

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            validate_fraction("f", bad)

    @pytest.mark.parametrize("bad", [True, None, "0.5"])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(TypeError, match="must be a number"):
            validate_fraction("f", bad)


class TestPartitionSpecValidation:
    def test_defaults_are_valid(self):
        spec = PartitionSpec()
        assert spec.components == 2 and spec.heal_cycle > spec.split_cycle

    def test_rejects_single_component(self):
        with pytest.raises(ValueError, match="components must be >= 2"):
            PartitionSpec(components=1)

    def test_rejects_bool_components(self):
        with pytest.raises(TypeError, match="components must be an int"):
            PartitionSpec(components=True)

    def test_rejects_negative_split(self):
        with pytest.raises(ValueError, match="split_cycle must be >= 0"):
            PartitionSpec(split_cycle=-1, heal_cycle=2)

    @pytest.mark.parametrize("split,heal", [(3, 3), (3, 2), (5, 0)])
    def test_rejects_heal_before_split(self, split, heal):
        with pytest.raises(ValueError, match="heal_cycle must come strictly after"):
            PartitionSpec(split_cycle=split, heal_cycle=heal)


class TestAsymmetrySpecValidation:
    def test_null_spec(self):
        assert AsymmetrySpec().is_null
        assert not AsymmetrySpec(nat_fraction=0.1).is_null
        assert not AsymmetrySpec(degraded_fraction=0.5, link_loss_rate=0.1).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"degraded_fraction": -0.5},
            {"degraded_fraction": 2.0},
            {"link_loss_rate": 1.5},
            {"nat_fraction": float("nan")},
        ],
    )
    def test_rejects_bad_fractions(self, kwargs):
        with pytest.raises(ValueError):
            AsymmetrySpec(**kwargs)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay_cycles must be non-negative"):
            AsymmetrySpec(link_delay_cycles=-1)

    def test_rejects_float_delay(self):
        with pytest.raises(TypeError, match="delay_cycles must be an int"):
            AsymmetrySpec(link_delay_cycles=1.0)


class TestConstructorHardening:
    def test_conditioned_transport_rejects_wrong_spec_types(self):
        with pytest.raises(TypeError, match="partition must be a PartitionSpec"):
            Transport(partition=(0, 5))
        with pytest.raises(TypeError, match="asymmetry must be an AsymmetrySpec"):
            Transport(asymmetry={"nat_fraction": 0.1})

    def test_config_rejects_wrong_spec_types(self):
        with pytest.raises(TypeError, match="partition must be a PartitionSpec"):
            P3QConfig(network_size=4, storage=2, partition=3)
        with pytest.raises(TypeError, match="asymmetry must be an AsymmetrySpec"):
            P3QConfig(network_size=4, storage=2, asymmetry=0.2)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_config_rejects_bad_free_rider_fraction(self, bad):
        with pytest.raises(ValueError, match="free_rider_fraction"):
            P3QConfig(network_size=4, storage=2, free_rider_fraction=bad)

    def test_config_rejects_bool_free_rider_fraction(self):
        with pytest.raises(TypeError, match="free_rider_fraction"):
            P3QConfig(network_size=4, storage=2, free_rider_fraction=True)

    def test_config_accepts_conditions_on_conditioned(self):
        config = P3QConfig(
            network_size=4,
            storage=2,
            partition=PartitionSpec(split_cycle=0, heal_cycle=3),
            asymmetry=AsymmetrySpec(nat_fraction=0.2),
            free_rider_fraction=0.25,
        )
        assert config.partition.heal_cycle == 3


# ------------------------------------------------------------------ partition


class TestPartitionTransport:
    def _transport(self, split=1, heal=4, components=2, seed=7):
        return Transport(
            seed=seed,
            partition=PartitionSpec(
                components=components, split_cycle=split, heal_cycle=heal
            ),
        )

    def test_components_are_balanced_and_deterministic(self, tiny_dataset):
        transport = self._transport()
        _wire(transport, tiny_dataset)
        cut = transport.condition(PartitionCut)
        assignment = {uid: cut.component(uid) for uid in range(5)}
        sizes = sorted(
            list(assignment.values()).count(c) for c in set(assignment.values())
        )
        assert sizes == [2, 3]
        twin = self._transport()
        _wire(twin, tiny_dataset)
        twin_cut = twin.condition(PartitionCut)
        assert assignment == {uid: twin_cut.component(uid) for uid in range(5)}

    def test_cut_drops_are_accounted(self, tiny_dataset):
        transport = self._transport()
        network, nodes = _wire(transport, tiny_dataset)
        sender, receiver = _cross_pair(transport, nodes)
        network.current_cycle = 2  # inside [split, heal)
        dispatch = transport.request(sender, receiver, _digest_ad(nodes[sender]))
        assert dispatch.status == DROPPED
        assert transport.condition(PartitionCut).cut_drops == 1
        # Accounted like a lossy drop: the sender paid for the attempt.
        assert network.stats.total_bytes() > 0

    def test_same_component_delivery_during_cut(self, tiny_dataset):
        transport = self._transport()
        network, nodes = _wire(transport, tiny_dataset)
        sender, receiver = _same_pair(transport, nodes)
        network.current_cycle = 2
        dispatch = transport.request(sender, receiver, _digest_ad(nodes[sender]))
        assert dispatch.status == DELIVERED

    @pytest.mark.parametrize("cycle", [0, 4, 9])
    def test_cut_is_inactive_outside_the_window(self, tiny_dataset, cycle):
        transport = self._transport(split=1, heal=4)
        network, nodes = _wire(transport, tiny_dataset)
        sender, receiver = _cross_pair(transport, nodes)
        network.current_cycle = cycle
        assert not transport.condition(PartitionCut).active()
        dispatch = transport.request(sender, receiver, _digest_ad(nodes[sender]))
        assert dispatch.status == DELIVERED
        assert transport.condition(PartitionCut).cut_drops == 0

    def test_in_flight_envelope_is_held_until_heal(self, tiny_dataset):
        transport = self._transport(split=1, heal=4)
        network, nodes = _wire(transport, tiny_dataset)
        sender, receiver = _cross_pair(transport, nodes)
        events = []
        transport.add_observer(events.append)
        # Sent before the split, due while the cut is up.
        envelope = Envelope(sender, receiver, _digest_ad(nodes[sender]), None, False)
        network.current_cycle = 0
        transport._enqueue(envelope, 2)
        network.current_cycle = 2
        assert transport.drain() == 0
        assert transport.pending_count() == 1
        assert events[-1].status == DEFERRED and not events[-1].accounted
        # At the heal cycle the held envelope finally goes through.
        network.current_cycle = 4
        assert transport.drain() == 1
        assert transport.pending_count() == 0
        assert events[-1].status == DELIVERED


# ------------------------------------------------------------------ asymmetry


class TestAsymmetricLinks:
    def test_nat_nodes_are_unreachable_inbound_only(self, tiny_dataset):
        transport = Transport(seed=5, asymmetry=AsymmetrySpec(nat_fraction=0.4))
        network, nodes = _wire(transport, tiny_dataset)
        nat = transport.condition(NatBlock).ids()
        assert len(nat) == 2  # round(0.4 * 5)
        nat_node = min(nat)
        open_node = min(set(nodes) - nat)
        before = network.stats.total_bytes()
        assert (
            transport.request(open_node, nat_node, _digest_ad(nodes[open_node])).status
            == UNREACHABLE
        )
        # The connection never opened: nothing was charged.
        assert network.stats.total_bytes() == before
        # Outbound traffic of a NAT node flows normally.
        assert (
            transport.request(nat_node, open_node, _digest_ad(nodes[nat_node])).status
            == DELIVERED
        )

    def test_nat_initiator_gets_the_reply_to_its_deferred_round_trip(self, tiny_dataset):
        """A NAT'd node's own exchanges complete whether or not they are
        delayed: the reply to a drained round-trip rides the connection the
        initiator opened, so the inbound block does not apply to it."""
        transport = Transport(
            seed=5, delay_cycles=2, asymmetry=AsymmetrySpec(nat_fraction=0.4)
        )
        network, nodes = _wire(transport, tiny_dataset)
        nat = transport.condition(NatBlock).ids()
        nat_node = min(nat)
        open_node = min(set(nodes) - nat)
        events = []
        transport.add_observer(events.append)
        outcomes = set()
        for _ in range(32):
            del events[:]
            status = transport.request(nat_node, open_node, _digest_ad(nodes[nat_node])).status
            if status == DEFERRED:
                network.current_cycle += 3
                transport.drain()
            # The request leg reached the open node and its reply came back
            # to the NAT'd initiator (possibly deferred again, never refused).
            reply = [e for e in events if (e.sender, e.receiver) == (open_node, nat_node)]
            assert reply and all(e.status in (DELIVERED, DEFERRED) for e in reply), (
                status, [(e.op, e.status) for e in events],
            )
            outcomes.add(status)
            network.current_cycle += 3
            transport.drain()
        assert outcomes == {DELIVERED, DEFERRED}  # both paths were exercised
        # Unsolicited inbound traffic is still refused.
        assert transport.send(open_node, nat_node, _digest_ad(nodes[open_node])) == UNREACHABLE

    def test_zero_nat_fraction_samples_nothing(self, tiny_dataset):
        transport = Transport(seed=5, asymmetry=AsymmetrySpec())
        _wire(transport, tiny_dataset)
        assert transport.condition(NatBlock) is None

    def test_degraded_links_are_per_direction_and_order_independent(self, tiny_dataset):
        spec = AsymmetrySpec(degraded_fraction=0.5, link_loss_rate=1.0)
        first = DegradedLinks(spec, seed=11)
        second = DegradedLinks(spec, seed=11)
        pairs = [(a, b) for a in range(5) for b in range(5) if a != b]
        forward = {pair: first.degraded(*pair) for pair in pairs}
        # Same seed, reversed first-touch order: identical decisions.
        reverse = {pair: second.degraded(*pair) for pair in reversed(pairs)}
        assert forward == reverse
        assert any(forward.values()) and not all(forward.values())
        # Per direction: at least one pair differs from its mirror.
        assert any(
            forward[(a, b)] != forward[(b, a)] for a, b in pairs if (b, a) in forward
        )

    def test_fully_degraded_link_drops_everything(self, tiny_dataset):
        transport = Transport(
            seed=2, asymmetry=AsymmetrySpec(degraded_fraction=1.0, link_loss_rate=1.0)
        )
        network, nodes = _wire(transport, tiny_dataset)
        dispatch = transport.request(0, 1, _digest_ad(nodes[0]))
        assert dispatch.status == DROPPED
        assert network.stats.total_bytes() > 0  # charged at send time

    def test_degraded_link_delay_defers_deferrable_messages(self, tiny_dataset):
        transport = Transport(
            seed=2, asymmetry=AsymmetrySpec(degraded_fraction=1.0, link_delay_cycles=2)
        )
        network, nodes = _wire(transport, tiny_dataset)
        dispatch = transport.request(0, 1, _digest_ad(nodes[0]))
        assert dispatch.status == DEFERRED
        assert transport.pending_count() == 1
        # Control sub-requests stay synchronous even on degraded links.
        control = CommonItemsRequest(subject_id=0, items=frozenset({1}))
        assert transport.request(0, 1, control).status == DELIVERED
