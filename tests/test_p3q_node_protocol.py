"""Integration tests for P3QNode, the eager protocol and P3QSimulation."""

from __future__ import annotations

import pytest

from repro.baselines.centralized import CentralizedTopK
from repro.data.dynamics import DynamicsConfig, ProfileDynamicsGenerator, massive_departure
from repro.data.queries import Query
from repro.metrics.recall import average_recall
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.similarity.knn import IdealNetworkIndex


class TestNodeBasics:
    def test_node_serves_own_and_stored_profiles(self, warm_simulation):
        node = warm_simulation.node(warm_simulation.dataset.user_ids[0])
        own = node.full_profile_of(node.node_id)
        assert own is not None and own.actions == node.profile.actions
        stored = node.personal_network.stored_ids()
        if stored:
            assert node.full_profile_of(stored[0]) is not None
        assert node.full_profile_of(-12345) is None

    def test_stored_digest_sample_includes_own_digest(self, warm_simulation):
        node = warm_simulation.node(warm_simulation.dataset.user_ids[0])
        sample = node.stored_digest_sample(limit=3)
        assert any(d.user_id == node.node_id for d in sample)
        assert len(sample) <= 3 + 1

    def test_issue_query_rejects_foreign_querier(self, warm_simulation):
        ids = warm_simulation.dataset.user_ids
        node = warm_simulation.node(ids[0])
        query = Query(query_id=1, querier=ids[1], tags=(1,))
        with pytest.raises(ValueError):
            node.issue_query(query)

    def test_issue_query_builds_remaining_list(self, warm_simulation, query_workload):
        query = query_workload[0]
        node = warm_simulation.node(query.querier)
        session = node.issue_query(query)
        assert set(session.remaining) == set(node.personal_network.unstored_ids())
        assert node.has_active_queries() or not session.remaining


class TestWarmStart:
    def test_warm_start_installs_ideal_networks(self, synthetic_dataset, small_config):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        ideal = simulation.warm_start()
        for uid in synthetic_dataset.user_ids[:10]:
            node = simulation.node(uid)
            assert set(node.personal_network.member_ids()) == set(ideal.neighbour_ids(uid))
            stored = node.personal_network.stored_ids()
            assert len(stored) <= small_config.storage_for(uid)
            # Stored replicas are the highest-scored neighbours.
            assert set(stored) <= set(ideal.neighbour_ids(uid)[: small_config.storage_for(uid)])

    def test_warm_start_after_lazy_cycles_replaces_the_networks(
        self, synthetic_dataset, small_config
    ):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        simulation.run_lazy(2)
        ideal = IdealNetworkIndex(simulation.dataset, size=small_config.network_size)
        assert any(
            node.personal_network.member_ids() != ideal.neighbour_ids(uid)
            for uid, node in simulation.nodes.items()
        )
        simulation.warm_start(ideal)
        for uid, node in simulation.nodes.items():
            network = node.personal_network
            assert network.member_ids() == ideal.neighbour_ids(uid)
            assert all(entry.timestamp == 0 for entry in network.ranked_entries())
            assert network.stored_ids() == ideal.neighbour_ids(uid)[: network.storage]

    def test_bootstrap_fills_random_views(self, synthetic_dataset, small_config):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        sizes = [len(simulation.node(uid).random_view) for uid in synthetic_dataset.user_ids]
        assert all(size > 0 for size in sizes)
        assert all(size <= small_config.random_view_size for size in sizes)


class TestEagerProcessing:
    def test_recall_reaches_one_on_converged_networks(self, warm_simulation, query_workload):
        central = CentralizedTopK(
            warm_simulation.dataset,
            network_size=warm_simulation.config.network_size,
        )
        references = central.relevant_items(query_workload, k=10)
        sessions = warm_simulation.issue_queries(query_workload)
        warm_simulation.run_eager(cycles=30)
        results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
        assert average_recall(results, references) == pytest.approx(1.0)
        assert all(session.is_complete() for session in sessions.values())

    def test_recall_never_decreases_to_completion(self, warm_simulation, query_workload):
        central = CentralizedTopK(
            warm_simulation.dataset, network_size=warm_simulation.config.network_size
        )
        references = central.relevant_items(query_workload, k=10)
        sessions = warm_simulation.issue_queries(query_workload)
        per_cycle = []

        def callback(cycle, snapshots):
            # The callback reports open sessions only; a closed session's
            # last snapshot is its answer.
            results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
            per_cycle.append(average_recall(results, references))

        warm_simulation.run_eager(cycles=30, callback=callback)
        assert per_cycle[-1] == pytest.approx(1.0)
        # Recall may wobble slightly mid-run (NRA approximations) but the
        # overall trend must be upward: the final value dominates the first.
        assert per_cycle[-1] >= per_cycle[0]

    def test_every_contributor_is_a_network_member_or_querier(
        self, warm_simulation, query_workload
    ):
        sessions = warm_simulation.issue_queries(query_workload)
        warm_simulation.run_eager(cycles=30)
        for session in sessions.values():
            allowed = set(session.expected_profiles)
            assert session.profiles_used <= allowed

    def test_eager_stops_when_idle(self, warm_simulation, query_workload):
        warm_simulation.issue_queries(query_workload)
        executed = warm_simulation.run_eager(cycles=200)
        assert executed < 200

    def test_users_reached_includes_querier(self, warm_simulation, query_workload):
        sessions = warm_simulation.issue_queries(query_workload)
        warm_simulation.run_eager(cycles=20)
        for query in query_workload:
            reached = warm_simulation.users_reached(query.query_id)
            assert query.querier in reached
            assert len(reached) >= 1

    def test_alpha_zero_and_one_still_complete(self, synthetic_dataset, query_workload):
        for alpha in (0.0, 1.0):
            config = P3QConfig(
                network_size=20,
                storage=5,
                random_view_size=5,
                alpha=alpha,
                digest_bits=2_048,
                digest_hashes=5,
                seed=4,
            )
            simulation = P3QSimulation(synthetic_dataset.copy(), config)
            simulation.warm_start()
            sessions = simulation.issue_queries(query_workload[:4])
            simulation.run_eager(cycles=60)
            assert all(s.is_complete() for s in sessions.values())

    def test_offline_querier_is_skipped(self, warm_simulation, query_workload):
        query = query_workload[0]
        warm_simulation.depart_users([query.querier])
        sessions = warm_simulation.issue_queries([query])
        assert query.query_id not in sessions


class TestSessionLifecycle:
    """Issuing takes a session's first snapshot, each eager cycle one more
    while it is open, and a closed session takes none."""

    def test_issue_query_records_the_issue_cycle_snapshot(
        self, warm_simulation, query_workload
    ):
        query = query_workload[0]
        session = warm_simulation.node(query.querier).issue_query(query, cycle=3)
        assert [snapshot.cycle for snapshot in session.snapshots] == [3]

    def test_closed_session_takes_no_further_snapshot(self, warm_simulation, query_workload):
        sessions = warm_simulation.issue_queries(query_workload)
        warm_simulation.run_eager(cycles=30)
        warm_simulation.run_eager(cycles=5, stop_when_idle=False)
        assert all(session.closed for session in sessions.values())
        for session in sessions.values():
            assert len(session.snapshots) == session.closed_cycle - session.issued_cycle + 1
            assert session.snapshots[-1].cycle == session.closed_cycle

    def test_callback_reports_the_sessions_open_at_the_start_of_the_cycle(
        self, warm_simulation, query_workload
    ):
        sessions = warm_simulation.issue_queries(query_workload)
        still_open = {qid for qid, session in sessions.items() if not session.closed}
        cycles = []

        def callback(cycle, snapshots):
            assert set(snapshots) == still_open
            assert all(snapshot.cycle == cycle for snapshot in snapshots.values())
            still_open.difference_update(qid for qid in snapshots if sessions[qid].closed)
            cycles.append(cycle)

        warm_simulation.run_eager(cycles=30, callback=callback, stop_when_idle=False)
        assert cycles == list(range(1, 31))
        assert not still_open


class TestDynamics:
    def test_profile_changes_propagate_through_lazy_gossip(self, warm_simulation):
        dataset = warm_simulation.dataset
        generator = ProfileDynamicsGenerator(
            dataset, DynamicsConfig(change_fraction=0.3, mean_new_actions=5, seed=2)
        )
        change_day = generator.generate_day()
        warm_simulation.apply_profile_changes(change_day)
        changed = set(change_day.changed_users)

        from repro.metrics.freshness import average_update_rate

        before = average_update_rate(
            warm_simulation.stored_replica_versions(),
            warm_simulation.current_profile_versions(),
            changed,
        )
        warm_simulation.run_lazy(15)
        after = average_update_rate(
            warm_simulation.stored_replica_versions(),
            warm_simulation.current_profile_versions(),
            changed,
        )
        assert after >= before
        assert after > 0.5

    def test_churn_degrades_but_does_not_break_queries(
        self, synthetic_dataset, small_config, query_workload
    ):
        central = CentralizedTopK(synthetic_dataset, network_size=small_config.network_size)
        references = central.relevant_items(query_workload, k=10)
        queriers = [q.querier for q in query_workload]

        def run(departure_fraction):
            simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
            simulation.warm_start()
            if departure_fraction:
                event = massive_departure(
                    simulation.dataset, departure_fraction, seed=1, protect=queriers
                )
                simulation.depart_users(event.departing_users)
            sessions = simulation.issue_queries(query_workload)
            simulation.run_eager(cycles=15, stop_when_idle=False)
            return {qid: s.snapshots[-1].items for qid, s in sessions.items()}

        healthy = average_recall(run(0.0), references)
        churned = average_recall(run(0.7), references)
        assert healthy == pytest.approx(1.0)
        assert churned <= healthy
        assert churned >= 0.3  # replicas keep most of the answer available

    def test_lazy_convergence_from_cold_start(self, synthetic_dataset, small_config):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        ideal = IdealNetworkIndex(synthetic_dataset, size=small_config.network_size)
        from repro.metrics.convergence import average_success_ratio

        start = average_success_ratio(ideal, simulation.discovered_networks())
        simulation.run_lazy(12)
        end = average_success_ratio(ideal, simulation.discovered_networks())
        assert end > start
        assert end > 0.6
