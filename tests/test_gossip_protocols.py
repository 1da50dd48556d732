"""Tests for peer sampling and the lazy (Algorithm 1) exchange.

The protocols are exercised through real :class:`P3QNode` instances wired
into a :class:`Network`, which is both the production configuration and the
most direct way to observe their effects.
"""

from __future__ import annotations

import pytest

from repro.data.models import Dataset
from repro.gossip.peer_sampling import PeerSamplingProtocol
from repro.gossip.profile_exchange import LazyExchangeProtocol
from repro.p3q.config import P3QConfig
from repro.p3q.node import P3QNode
from repro.simulator.effects import drive
from repro.simulator.network import Network
from repro.simulator.stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_FULL_PROFILES,
    KIND_RANDOM_VIEW,
)


def build_network(dataset: Dataset, config: P3QConfig):
    """Create one node per user, all registered in a fresh network."""
    network = Network()
    nodes = {}
    for profile in dataset.profiles():
        node = P3QNode(profile, config)
        nodes[node.node_id] = node
        network.add_node(node)
    return network, nodes


def wire_protocol(nodes, protocol) -> None:
    """Install a protocol instance on every node, as a simulation would.

    The transport delivers messages to the *receiver's* protocol objects, so
    a test exercising a non-default protocol must share it across the nodes
    (production wiring: one instance per :class:`P3QSimulation`).
    """
    attr = "lazy" if isinstance(protocol, LazyExchangeProtocol) else "peer_sampling"
    for node in nodes.values():
        setattr(node, attr, protocol)


@pytest.fixture()
def gossip_config() -> P3QConfig:
    return P3QConfig(
        network_size=4,
        storage=2,
        random_view_size=3,
        digest_bits=1_024,
        digest_hashes=4,
        seed=1,
    )


@pytest.fixture()
def wired(tiny_dataset, gossip_config):
    network, nodes = build_network(tiny_dataset, gossip_config)
    # Seed every random view with every other node so discovery can start.
    for node in nodes.values():
        node.bootstrap_random_view(
            [nodes[other].own_digest() for other in nodes if other != node.node_id]
        )
    return network, nodes


class TestPeerSampling:
    def test_exchange_mixes_views(self, wired):
        network, nodes = wired
        protocol = PeerSamplingProtocol()
        partner = drive(protocol.run_cycle_effects(nodes[0]), network)
        assert partner in nodes
        assert len(nodes[0].random_view) <= nodes[0].random_view.size

    def test_exchange_accounts_traffic(self, wired):
        network, nodes = wired
        drive(PeerSamplingProtocol().run_cycle_effects(nodes[0]), network)
        assert network.stats.total_bytes(KIND_RANDOM_VIEW) > 0

    def test_offline_partner_skipped(self, wired):
        network, nodes = wired
        network.depart([uid for uid in nodes if uid != 0])
        partner = drive(PeerSamplingProtocol().run_cycle_effects(nodes[0]), network)
        assert partner is None

    def test_empty_view_returns_none(self, tiny_dataset, gossip_config):
        network, nodes = build_network(tiny_dataset, gossip_config)
        assert drive(PeerSamplingProtocol().run_cycle_effects(nodes[0]), network) is None


class TestLazyExchange:
    def test_similar_users_discover_each_other(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(3):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        # Users 0 and 1 share 3 tagging actions: they must be neighbours.
        assert 1 in nodes[0].personal_network
        assert 0 in nodes[1].personal_network
        assert nodes[0].personal_network.entry(1).score == 3

    def test_disjoint_users_never_become_neighbours(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        # User 3 shares nothing with user 0.
        assert 3 not in nodes[0].personal_network
        assert 0 not in nodes[3].personal_network

    def test_scores_match_true_overlap(self, wired, tiny_dataset):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        for uid, node in nodes.items():
            for entry in node.personal_network.ranked_entries():
                true_overlap = len(
                    tiny_dataset.profile(uid).actions
                    & tiny_dataset.profile(entry.user_id).actions
                )
                assert entry.score == true_overlap

    def test_stored_profiles_limited_to_budget(self, wired, gossip_config):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        for node in nodes.values():
            assert len(node.personal_network.stored_ids()) <= gossip_config.storage_for(node.node_id)

    def test_stored_replicas_match_source_profiles(self, wired, tiny_dataset):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        for node in nodes.values():
            for uid, replica in node.personal_network.stored_profiles().items():
                assert replica.actions == tiny_dataset.profile(uid).actions

    def test_traffic_kinds_recorded(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(3):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        kinds = network.stats.bytes_by_kind()
        assert kinds.get(KIND_DIGESTS, 0) > 0
        assert kinds.get(KIND_COMMON_ITEMS, 0) >= 0
        assert kinds.get(KIND_FULL_PROFILES, 0) > 0

    def test_unchanged_known_profiles_are_not_refetched(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        baseline = network.stats.total_bytes(KIND_FULL_PROFILES)
        # Run more cycles without any profile change: no new full profiles
        # should be transferred (digests unchanged -> dropped in step 1).
        for _ in range(3):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        assert network.stats.total_bytes(KIND_FULL_PROFILES) == baseline

    def test_profile_change_triggers_refresh(self, wired, tiny_dataset):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        # User 1 tags something new; user 0 stores user 1's profile.
        assert nodes[0].personal_network.entry(1).profile is not None
        nodes[1].profile.add_all([(500, 999)])
        target_version = nodes[1].profile.version
        for _ in range(4):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        replica = nodes[0].personal_network.stored_profiles()[1]
        assert replica.version == target_version
        assert (500, 999) in replica

    def test_random_view_member_enters_with_the_copy_the_peer_holds(self, gossip_config):
        """A member scored from the random view is recorded with the digest
        copy the random view holds, even when the member's live profile has
        moved on since: no runtime reads another node's memory."""
        dataset = Dataset.from_actions({0: [(1, 100), (2, 100)], 1: [(1, 100), (3, 101)]})
        network, nodes = build_network(dataset, gossip_config)
        nodes[0].bootstrap_random_view([nodes[1].own_digest()])
        (held,) = nodes[0].random_view.digests()
        nodes[1].profile.add_all([(500, 999)])
        assert nodes[1].own_digest().version > held.version
        drive(nodes[0].lazy.refresh_from_random_view_effects(nodes[0]), network)
        assert nodes[0].personal_network.entry(1).digest is held

    def test_offline_partner_does_not_break_cycle(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        for _ in range(2):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        network.depart([1])
        for _ in range(2):
            for node in nodes.values():
                if network.is_online(node.node_id):
                    drive(protocol.run_cycle_effects(node), network)
        assert True  # reaching here without exceptions is the point

    def test_non_three_step_mode_ships_profiles_immediately(self, wired):
        network, nodes = wired
        protocol = LazyExchangeProtocol(three_step=False)
        wire_protocol(nodes, protocol)
        for _ in range(3):
            for node in nodes.values():
                drive(protocol.run_cycle_effects(node), network)
        assert 1 in nodes[0].personal_network
        assert network.stats.total_bytes(KIND_COMMON_ITEMS) == 0

    def test_probes_go_through_the_receivers_digest_cache(self, wired):
        """The protocol holds no cache of its own: each node's probes are
        priced, and memoised, in that node's ``digest_cache`` (a standalone
        node's private one)."""
        network, nodes = wired
        protocol = LazyExchangeProtocol()
        wire_protocol(nodes, protocol)
        assert all(node.digest_cache._common_pairs == 0 for node in nodes.values())
        for node in nodes.values():
            drive(protocol.run_cycle_effects(node), network)
        assert all(node.digest_cache._common_pairs > 0 for node in nodes.values())

    def test_exchange_size_validation(self):
        with pytest.raises(ValueError):
            LazyExchangeProtocol(exchange_size=0)
