#!/usr/bin/env python3
"""Dynamics demo: profile changes and massive departures.

Two experiments from Section 3.4 of the paper, condensed:

1. every user keeps tagging: one simulated day of profile changes is applied
   at once, and the lazy gossip progressively refreshes the replicas stored
   in personal networks (average update rate, Figure 7);
2. half of the users leave simultaneously: queries still succeed because the
   departed users' profiles survive as replicas on the remaining nodes
   (Figure 11).

Run with:  python examples/churn_and_dynamics.py
"""

from __future__ import annotations

from repro.baselines import CentralizedTopK
from repro.data import (
    DynamicsConfig,
    ProfileDynamicsGenerator,
    QueryWorkloadGenerator,
    SyntheticConfig,
    generate_dataset,
    massive_departure,
)
from repro.metrics import average_recall, average_update_rate
from repro.p3q import P3QConfig, P3QSimulation


def freshness_demo() -> None:
    print("=== profile dynamics: lazy gossip refreshes stale replicas ===")
    dataset = generate_dataset(SyntheticConfig(num_users=120, seed=5))
    config = P3QConfig(network_size=40, storage=6, random_view_size=8, seed=5)
    simulation = P3QSimulation(dataset, config)
    simulation.warm_start()
    simulation.bootstrap_random_views()

    generator = ProfileDynamicsGenerator(
        simulation.dataset, DynamicsConfig(change_fraction=0.2, mean_new_actions=8, seed=5)
    )
    change_day = generator.generate_day()
    simulation.apply_profile_changes(change_day)
    changed = set(change_day.changed_users)
    print(f"{len(changed)} users changed their profiles simultaneously")

    for cycle in (0, 5, 10, 15, 20):
        if cycle:
            simulation.run_lazy(5)
        aur = average_update_rate(
            simulation.stored_replica_versions(),
            simulation.current_profile_versions(),
            changed,
        )
        print(f"  after {cycle:>2} lazy cycles: average update rate = {aur:.2f}")


def churn_demo() -> None:
    print("\n=== churn: 50% of users leave, queries still mostly succeed ===")
    dataset = generate_dataset(SyntheticConfig(num_users=120, seed=6))
    config = P3QConfig(network_size=40, storage=6, random_view_size=8, seed=6)
    queriers = dataset.user_ids[:20]
    queries = QueryWorkloadGenerator(dataset, seed=6).generate(queriers)
    central = CentralizedTopK(dataset, network_size=config.network_size)
    references = central.relevant_items(queries, k=10)

    for fraction in (0.0, 0.5, 0.9):
        simulation = P3QSimulation(dataset.copy(), config)
        simulation.warm_start()
        if fraction:
            departing = massive_departure(
                simulation.dataset, fraction, seed=7, protect=queriers
            )
            simulation.depart_users(departing)
        sessions = simulation.issue_queries(queries)
        simulation.run_eager(cycles=10, stop_when_idle=False)
        results = {qid: s.snapshots[-1].items for qid, s in sessions.items()}
        value = average_recall(results, references)
        print(f"  departures = {int(fraction * 100):>2}% -> average recall after "
              f"10 cycles = {value:.2f}")

    print("replication inside personal networks keeps most of the answer"
          " available even under massive departures.")


def main() -> None:
    freshness_demo()
    churn_demo()


if __name__ == "__main__":
    main()
