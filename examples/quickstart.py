#!/usr/bin/env python3
"""Quickstart: run P3Q end to end on a synthetic tagging trace.

The script builds a small delicious-like trace, deploys one P3Q node per
user with converged personal networks, issues a personalized top-10 query,
and shows how the result is refined cycle by cycle until it matches the
centralized reference (recall 1).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import CentralizedTopK
from repro.data import QueryWorkloadGenerator, SyntheticConfig, generate_dataset
from repro.metrics import recall
from repro.p3q import P3QConfig, P3QSimulation


def main() -> None:
    # 1. A synthetic collaborative tagging system: 150 users, long-tail
    #    item/tag popularity, community structure.
    dataset = generate_dataset(
        SyntheticConfig(num_users=150, num_items=1_200, num_tags=250, seed=1)
    )
    stats = dataset.stats()
    print(f"dataset: {stats.num_users} users, {stats.num_items} items, "
          f"{stats.num_tags} tags, {stats.num_actions} tagging actions")

    # 2. Deploy P3Q: personal networks of 50 neighbours, 5 stored profiles,
    #    random views of 8 peers, alpha = 0.5.
    config = P3QConfig(network_size=50, storage=5, random_view_size=8, alpha=0.5, seed=1)
    simulation = P3QSimulation(dataset, config)
    ideal = simulation.warm_start()      # personal networks already converged
    simulation.bootstrap_random_views()

    # 3. One personalized query: a user searches with the tags she used on a
    #    random item of her own profile.
    querier = dataset.user_ids[0]
    query = QueryWorkloadGenerator(dataset, seed=2).query_for(querier)
    print(f"\nquerier {querier} asks for tags {query.tags}")

    # 4. The centralized reference defines the ideal (recall 1) answer.
    central = CentralizedTopK(dataset, network_size=50, ideal=ideal)
    reference = central.top_k_items(query, k=10)
    print(f"reference top-10 (centralized): {reference}")

    # 5. Issue the query and watch the eager gossip refine the answer.
    sessions = simulation.issue_queries([query])
    session = sessions[query.query_id]
    first = session.snapshots[0]
    print(f"\ncycle 0 (local result from {first.profiles_used} stored profiles): "
          f"{first.items}  recall={recall(first.items, reference):.2f}")

    def report(cycle: int, snapshots) -> None:
        # ``snapshots`` holds the sessions still open at the start of the
        # cycle; once the query closes, its last snapshot is its answer.
        snapshot = session.snapshots[-1]
        value = recall(snapshot.items, reference)
        print(f"cycle {cycle}: coverage={snapshot.coverage:.2f}  recall={value:.2f}")

    simulation.run_eager(cycles=15, callback=report)

    final = session.snapshots[-1]
    print(f"\nfinal result: {final.items}")
    print(f"exact match with the centralized reference: "
          f"{recall(final.items, reference) == 1.0}")
    print(f"users reached by the query: {len(simulation.users_reached(query.query_id))}")


if __name__ == "__main__":
    main()
