"""Tests for the cycle-driven simulator substrate."""

from __future__ import annotations

import pytest

from repro.gossip.sizes import total_bytes
from repro.simulator import (
    KIND_DIGESTS,
    KIND_REMAINING_RETURN,
    FullProfileRequest,
    Network,
    Node,
    PHASE_EAGER,
    PHASE_LAZY,
    RemainingReturn,
    ScheduledEvent,
    SeededRngFactory,
    SimulationEngine,
    StatsCollector,
    UnknownNodeError,
    derive_rng,
)


class RecordingNode(Node):
    """A node that records every cycle it executes."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.executed = []
        self.departures = 0
        self.joins = 0

    def on_cycle(self, cycle: int, phase: str) -> None:
        self.executed.append((cycle, phase))

    def on_departure(self) -> None:
        self.departures += 1

    def on_join(self) -> None:
        self.joins += 1


class TestRng:
    def test_same_seed_same_stream(self):
        a = SeededRngFactory(1).for_purpose("x")
        b = SeededRngFactory(1).for_purpose("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        factory = SeededRngFactory(0)
        assert factory.for_purpose("x") is factory.for_purpose("x")

    def test_derive_rng_is_pure(self):
        assert derive_rng(1, "a", 2).random() == derive_rng(1, "a", 2).random()


class TestStatsCollector:
    def test_records_and_totals(self):
        stats = StatsCollector()
        stats.record(0, 1, 2, KIND_DIGESTS, 100)
        stats.record(1, 2, 1, KIND_DIGESTS, 50, query_id=7)
        assert stats.total_bytes() == 150
        assert stats.total_bytes(KIND_DIGESTS) == 150
        assert stats.total_messages(KIND_DIGESTS) == 2
        assert stats.query_bytes(7) == {KIND_DIGESTS: 50}
        assert stats.query_ids() == [7]

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            StatsCollector().record(0, 1, 2, "x", -1)

    def test_bandwidth_per_node(self):
        stats = StatsCollector()
        stats.record(0, 1, 2, "x", 1000)
        stats.record(1, 1, 2, "x", 1000)
        # 2000 bytes over 2 cycles of 1s each = 8000 bits/s, split over 4 nodes.
        assert stats.average_bandwidth_bps(1.0, num_nodes=4) == pytest.approx(2000.0)

    def test_bandwidth_rejects_bad_cycle_duration(self):
        with pytest.raises(ValueError):
            StatsCollector().average_bandwidth_bps(0.0)


class TestNetwork:
    def test_add_and_lookup(self):
        network = Network()
        node = RecordingNode(1)
        network.add_node(node)
        assert network.node(1) is node
        assert network.node_ids() == [1]

    def test_duplicate_id_rejected(self):
        network = Network()
        network.add_node(RecordingNode(1))
        with pytest.raises(ValueError):
            network.add_node(RecordingNode(1))

    def test_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            Network().node(9)

    def test_churn_flags_and_hooks(self):
        network = Network()
        node = RecordingNode(1)
        network.add_node(node)
        network.depart([1])
        assert not network.is_online(1)
        assert node.departures == 1
        assert network.try_contact(1) is None
        network.rejoin([1])
        assert network.is_online(1)
        assert node.joins == 1

    def test_try_contact_unknown_returns_none(self):
        assert Network().try_contact(42) is None

    def test_online_ids(self):
        network = Network()
        for node_id in (1, 2, 3):
            network.add_node(RecordingNode(node_id))
        network.depart([2])
        assert network.online_ids() == [1, 3]
        assert network.node_ids() == [1, 2, 3]

    def test_account_goes_to_stats(self):
        network = Network()
        network.current_cycle = 3
        message = RemainingReturn(query_id=5, remaining=(1, 2, 3))
        network.transport.account(1, 2, message, query_id=5)
        size = total_bytes(message)
        assert network.stats.bytes_by_cycle() == {3: size}
        assert network.stats.query_bytes(5) == {KIND_REMAINING_RETURN: size}
        assert network.stats.query_receivers(5, KIND_REMAINING_RETURN) == {2}
        # Control messages are free.
        network.transport.account(1, 2, FullProfileRequest(subject_id=1), query_id=5)
        assert network.stats.total_messages() == 1


class TestEngine:
    def _build(self, count: int = 4):
        network = Network()
        nodes = [RecordingNode(i) for i in range(count)]
        for node in nodes:
            network.add_node(node)
        return network, nodes, SimulationEngine(network, seed=1)

    def test_every_online_node_runs_each_cycle(self):
        network, nodes, engine = self._build()
        engine.run_cycles(3, phase=PHASE_LAZY)
        for node in nodes:
            assert [c for c, _ in node.executed] == [0, 1, 2]
        assert engine.cycle_counts[PHASE_LAZY] == 3

    def test_phases_have_independent_counters(self):
        network, nodes, engine = self._build()
        engine.run_cycles(2, phase=PHASE_LAZY)
        engine.run_cycles(3, phase=PHASE_EAGER)
        assert engine.cycle_counts[PHASE_LAZY] == 2
        assert engine.cycle_counts[PHASE_EAGER] == 3
        assert engine.global_cycle == 5

    def test_offline_nodes_do_not_run(self):
        network, nodes, engine = self._build()
        network.depart([0])
        engine.run_cycles(2)
        assert nodes[0].executed == []
        assert nodes[1].executed != []

    def test_participants_filter(self):
        network, nodes, engine = self._build()
        engine.run_cycle(phase=PHASE_EAGER, participants=[1, 3])
        assert nodes[0].executed == []
        assert nodes[1].executed == [(0, PHASE_EAGER)]
        assert nodes[3].executed == [(0, PHASE_EAGER)]

    def test_scheduled_event_fires_once_at_right_cycle(self):
        network, nodes, engine = self._build()
        fired = []
        engine.schedule(
            ScheduledEvent(cycle=1, phase=PHASE_LAZY, action=lambda e: fired.append(e.global_cycle))
        )
        engine.run_cycles(3)
        assert len(fired) == 1

    def test_negative_event_cycle_rejected(self):
        _, _, engine = self._build()
        with pytest.raises(ValueError):
            engine.schedule(ScheduledEvent(cycle=-1, phase=PHASE_LAZY, action=lambda e: None))

    def test_hooks_run_around_each_cycle(self):
        network, nodes, engine = self._build()
        order = []
        engine.add_post_cycle_hook(lambda e, c: order.append((c, len(nodes[0].executed))))
        engine.run_cycles(2)
        assert order == [(0, 1), (1, 2)]

    def test_callback_gets_cycle_index(self):
        network, nodes, engine = self._build()
        seen = []
        engine.run_cycles(3, callback=seen.append)
        assert seen == [0, 1, 2]

    def test_negative_count_rejected(self):
        _, _, engine = self._build()
        with pytest.raises(ValueError):
            engine.run_cycles(-1)


class TestDirtyProfilePlumbing:
    """The per-cycle dirty set: marked during a cycle, flushed at its end."""

    def _build(self):
        network = Network()
        nodes = [RecordingNode(i) for i in range(3)]
        for node in nodes:
            network.add_node(node)
        engine = SimulationEngine(network, seed=0)
        return network, engine

    def test_flush_fans_out_to_listeners_once(self):
        network, engine = self._build()
        seen = []
        network.add_profile_dirty_listener(seen.append)
        network.mark_profiles_dirty([1, 2])
        network.mark_profiles_dirty([2])
        flushed = network.flush_dirty_profiles()
        assert flushed == frozenset({1, 2})
        assert seen == [frozenset({1, 2})]
        # The set drained: a second flush is an empty no-op.
        assert network.flush_dirty_profiles() == frozenset()
        assert seen == [frozenset({1, 2})]

    def test_engine_flushes_at_cycle_boundary(self):
        network, engine = self._build()
        seen = []
        network.add_profile_dirty_listener(seen.append)
        engine.schedule(
            ScheduledEvent(
                cycle=0,
                phase="lazy",
                action=lambda _e: network.mark_profiles_dirty([0]),
            )
        )
        engine.run_cycle(phase="lazy")
        assert seen == [frozenset({0})]
        # Quiet cycles flush nothing.
        engine.run_cycle(phase="lazy")
        assert seen == [frozenset({0})]
