"""Unit-level tests for the eager gossip protocol (Algorithm 3 mechanics)."""

from __future__ import annotations

import pytest

from repro.p3q.config import P3QConfig
from repro.p3q.eager import EagerGossipProtocol
from repro.p3q.protocol import P3QSimulation
from repro.simulator.conditions import NatBlock
from repro.simulator.effects import drive
from repro.simulator.stats import (
    KIND_DIGESTS,
    KIND_PARTIAL_RESULT,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
)
from repro.simulator.transport import DELIVERED, UNREACHABLE, QueryForward


@pytest.fixture()
def warm(synthetic_dataset, small_config):
    simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
    simulation.warm_start()
    return simulation


def _query_for(simulation, querier):
    from repro.data.queries import QueryWorkloadGenerator

    return QueryWorkloadGenerator(simulation.dataset, seed=9).query_for(querier)


class TestValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EagerGossipProtocol(alpha=1.5)


class _Gossip:
    """One ``gossip_query_effects`` call in the engine, with what it did on
    the wire and which personal-network timestamps it reset."""

    def __init__(self, simulation, node, remaining):
        self.events = []
        self.marked = []
        simulation.network.transport.add_observer(self.events.append)
        mark = node.personal_network.mark_gossiped
        node.personal_network.mark_gossiped = lambda uid: (self.marked.append(uid), mark(uid))
        query = _query_for(simulation, node.node_id)
        self.returned = drive(
            simulation.eager.gossip_query_effects(node, query, remaining, cycle=1),
            simulation.network,
        )

    def forwards(self):
        return [
            (event.receiver, event.status)
            for event in self.events
            if type(event.message) is QueryForward
        ]

    def accounted_to(self, node_ids):
        return [
            event for event in self.events
            if event.accounted and {event.sender, event.receiver} & set(node_ids)
        ]


def _unstored(simulation, minimum):
    node = simulation.node(simulation.dataset.user_ids[0])
    remaining = node.personal_network.unstored_ids()
    if len(remaining) < minimum:
        pytest.skip("not enough unstored neighbours")
    return node, remaining


class TestDestinationSelection:
    def test_prefers_personal_network_members(self, warm):
        node, remaining = _unstored(warm, 1)
        strangers = [
            uid for uid in warm.dataset.user_ids
            if uid != node.node_id and uid not in node.personal_network
        ][:5]
        network = node.personal_network
        neighbours = sorted(
            remaining,
            key=lambda uid: (
                -network.entry(uid).timestamp, -network.entry(uid).score, uid
            ),
        )
        order = warm.eager.select_destinations(node, strangers + remaining)
        assert order[:len(neighbours)] == neighbours
        assert sorted(order[len(neighbours):]) == sorted(strangers)

    def test_skips_offline_candidates(self, warm):
        node, remaining = _unstored(warm, 2)
        order = warm.eager.select_destinations(node, remaining)
        warm.depart_users(order[:-1])
        gossip = _Gossip(warm, node, remaining)
        assert gossip.forwards() == (
            [(uid, UNREACHABLE) for uid in order[:-1]] + [(order[-1], DELIVERED)]
        )
        assert gossip.marked == [order[-1]]
        assert gossip.accounted_to(order[:-1]) == []

    def test_all_offline_leaves_the_list_unchanged(self, warm):
        node, remaining = _unstored(warm, 1)
        warm.depart_users(remaining)
        gossip = _Gossip(warm, node, remaining)
        assert gossip.returned == remaining
        assert sorted(gossip.forwards()) == sorted((uid, UNREACHABLE) for uid in remaining)
        assert gossip.marked == []
        assert gossip.accounted_to(remaining) == []

    def test_a_nat_blocked_candidate_costs_no_cycle(self, warm):
        """A NAT'd candidate is online but refuses the forward: the forward
        moves on to the next candidate within the same cycle."""
        nat = NatBlock(0.5, seed=1)
        nat.attach(warm.network)
        warm.network.transport.conditions = (nat,)
        for querier in warm.dataset.user_ids:
            node = warm.node(querier)
            remaining = node.personal_network.unstored_ids()
            order = warm.eager.select_destinations(node, remaining)
            if (
                querier not in nat.ids()
                and order
                and order[0] in nat.ids()
                and set(order) - nat.ids()
            ):
                break
        else:
            pytest.skip("no querier whose first candidate alone is NAT'd")
        reached = next(uid for uid in order if uid not in nat.ids())
        gossip = _Gossip(warm, node, remaining)
        assert gossip.forwards()[0] == (order[0], UNREACHABLE)
        assert gossip.forwards()[-1] == (reached, DELIVERED)
        assert gossip.marked == [reached]
        assert gossip.returned != remaining

    def test_empty_remaining_list(self, warm):
        node = warm.node(warm.dataset.user_ids[0])
        assert warm.eager.select_destinations(node, []) == []
        gossip = _Gossip(warm, node, [])
        assert gossip.returned == [] and gossip.events == [] and gossip.marked == []


class TestDestinationProcessing:
    def test_split_respects_alpha(self, warm):
        querier = warm.dataset.user_ids[0]
        query = _query_for(warm, querier)
        node = warm.node(querier)
        # Hand a synthetic remaining list (users whose profiles the
        # destination does not store) to check the split arithmetic.
        destination = warm.node(warm.dataset.user_ids[1])
        stored = set(destination.personal_network.stored_ids()) | {destination.node_id}
        remaining = [uid for uid in warm.dataset.user_ids if uid not in stored][:10]
        returned, kept = drive(
            warm.eager.process_at_destination_effects(destination, query, remaining, cycle=1),
            warm.network,
        )
        assert sorted(returned + kept) == sorted(remaining)
        assert len(kept) == int((1 - warm.eager.alpha) * len(remaining))

    def test_stored_profiles_are_removed_and_contributed(self, warm):
        querier = warm.dataset.user_ids[0]
        query = _query_for(warm, querier)
        node = warm.node(querier)
        session = node.issue_query(query)
        destination_id = next(
            (uid for uid in session.remaining if warm.network.is_online(uid)), None
        )
        if destination_id is None:
            pytest.skip("no remaining neighbour")
        destination = warm.node(destination_id)
        returned, kept = drive(
            warm.eager.process_at_destination_effects(
                destination, query, list(session.remaining), cycle=1
            ),
            warm.network,
        )
        # The destination's own profile was in the remaining list and must
        # have been removed (she contributes it herself).
        assert destination_id not in returned + kept
        assert destination_id in destination.contributed_profiles(query.query_id)

    def test_duplicate_gossip_does_not_recontribute(self, warm):
        querier = warm.dataset.user_ids[0]
        query = _query_for(warm, querier)
        node = warm.node(querier)
        session = node.issue_query(query)
        destination_id = next(
            (uid for uid in session.remaining if warm.network.is_online(uid)), None
        )
        if destination_id is None:
            pytest.skip("no remaining neighbour")
        destination = warm.node(destination_id)
        remaining = list(session.remaining)
        drive(
            warm.eager.process_at_destination_effects(destination, query, remaining, cycle=1),
            warm.network,
        )
        partials_before = warm.stats.total_messages(KIND_PARTIAL_RESULT)
        drive(
            warm.eager.process_at_destination_effects(destination, query, remaining, cycle=2),
            warm.network,
        )
        partials_after = warm.stats.total_messages(KIND_PARTIAL_RESULT)
        # Second delivery of the same list: the already-contributed profiles
        # are dropped silently; at most a smaller, disjoint partial result is
        # produced (never the same profiles again).
        assert destination.contributed_profiles(query.query_id) >= {destination_id}
        assert partials_after - partials_before <= 1


class TestTrafficAccounting:
    def test_query_traffic_is_attributed_to_the_query(self, warm, query_workload):
        query = query_workload[0]
        warm.issue_queries([query])
        warm.run_eager(cycles=10)
        per_kind = warm.stats.query_bytes(query.query_id)
        assert per_kind.get(KIND_REMAINING_FORWARD, 0) > 0
        assert per_kind.get(KIND_PARTIAL_RESULT, 0) > 0
        assert per_kind.get(KIND_REMAINING_RETURN, 0) >= 0

    def test_partial_result_messages_bounded_by_theorem(self, warm, query_workload):
        """Theorem 2.3: the number of partial result messages for one query
        is bounded by 2^R - 1 with R the drain time; a generous concrete
        bound is the number of users reached."""
        query = query_workload[0]
        warm.issue_queries([query])
        warm.run_eager(cycles=20)
        messages = warm.stats.query_messages(query.query_id).get(KIND_PARTIAL_RESULT, 0)
        reached = len(warm.users_reached(query.query_id))
        assert messages <= reached

    def test_eager_gossip_maintains_personal_networks(self, synthetic_dataset):
        """Every delivered forward is followed by a lazy-style digest
        exchange with the destination (Algorithm 3, lines 12 and 24)."""
        simulation = P3QSimulation(synthetic_dataset.copy(), P3QConfig(
            network_size=20,
            storage=5,
            random_view_size=5,
            digest_bits=2_048,
            digest_hashes=5,
            seed=5,
        ))
        simulation.warm_start()
        before = simulation.stats.total_messages(KIND_DIGESTS)
        query = _query_for(simulation, synthetic_dataset.user_ids[0])
        simulation.issue_queries([query])
        simulation.run_eager(cycles=10)
        forwards = simulation.stats.total_messages(KIND_REMAINING_FORWARD)
        assert forwards > 0
        # One advertisement each way per exchange.
        assert simulation.stats.total_messages(KIND_DIGESTS) - before >= 2 * forwards
