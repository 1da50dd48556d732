"""StatsCollector folding: a bounded row buffer, exact aggregates.

The contract: :meth:`StatsCollector.record` folds the row buffer into the
aggregates whenever it holds ``FOLD_ROWS`` rows, and every aggregate view
(bytes by kind, cycle and query, messages by kind and query, per-query
receivers) answers exactly what a reference fold answers -- plain sums
over a list of every row ever recorded -- however often it folded.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List

from repro.data import SyntheticConfig, generate_dataset
from repro.data.queries import QueryWorkloadGenerator
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator import stats as stats_module
from repro.simulator.stats import KIND_REMAINING_FORWARD, StatsCollector


def keep_every_row(stats: StatsCollector) -> List[tuple]:
    """Every row ``stats`` records from now on, in a list, as recorded."""
    rows: List[tuple] = []
    record = stats.record

    def record_and_keep(cycle, sender, receiver, kind, size_bytes, query_id=None):
        rows.append((cycle, sender, receiver, kind, size_bytes, query_id))
        record(cycle, sender, receiver, kind, size_bytes, query_id)

    stats.record = record_and_keep
    return rows


def reference_views(rows: List[tuple]) -> Dict[str, object]:
    """Every aggregate view, as plain sums over the list of every row."""
    bytes_by_kind: Counter = Counter()
    bytes_by_cycle: Counter = Counter()
    query_bytes: Dict[int, Counter] = defaultdict(Counter)
    query_messages: Dict[int, Counter] = defaultdict(Counter)
    receivers: Dict[tuple, set] = defaultdict(set)
    for cycle, _sender, receiver, kind, size_bytes, query_id in rows:
        bytes_by_kind[kind] += size_bytes
        bytes_by_cycle[cycle] += size_bytes
        if query_id is not None:
            query_bytes[query_id][kind] += size_bytes
            query_messages[query_id][kind] += 1
            receivers[query_id, kind].add(receiver)
    return {
        "bytes_by_kind": dict(bytes_by_kind),
        "bytes_by_cycle": dict(bytes_by_cycle),
        "messages_by_kind": dict(Counter(row[3] for row in rows)),
        "query_ids": sorted(query_bytes),
        "query_bytes": {query_id: dict(c) for query_id, c in query_bytes.items()},
        "query_messages": {query_id: dict(c) for query_id, c in query_messages.items()},
        "query_receivers": dict(receivers),
    }


def collector_views(stats: StatsCollector) -> Dict[str, object]:
    """The same views, read from the collector."""
    query_ids = stats.query_ids()
    kinds = stats.bytes_by_kind()
    return {
        "bytes_by_kind": kinds,
        "bytes_by_cycle": stats.bytes_by_cycle(),
        "messages_by_kind": {kind: stats.total_messages(kind) for kind in kinds},
        "query_ids": query_ids,
        "query_bytes": {query_id: stats.query_bytes(query_id) for query_id in query_ids},
        "query_messages": {
            query_id: stats.query_messages(query_id) for query_id in query_ids
        },
        "query_receivers": {
            (query_id, kind): stats.query_receivers(query_id, kind)
            for query_id in query_ids
            for kind in stats.query_bytes(query_id)
        },
    }


def _record_burst(stats: StatsCollector) -> None:
    for cycle in range(4):
        for sender in range(5):
            stats.record(cycle, sender, (sender + 1) % 5, "kind_a", 10)
            stats.record(cycle, sender, (sender + 2) % 5, "kind_b", 7, query_id=cycle % 2)


def _simulation(num_users: int) -> P3QSimulation:
    """A small deployment with default traffic accounting."""
    dataset = generate_dataset(
        SyntheticConfig(
            num_users=num_users,
            num_items=300,
            num_tags=80,
            num_communities=3,
            mean_actions_per_user=18,
            seed=4,
        )
    )
    return P3QSimulation(
        dataset,
        P3QConfig(network_size=10, storage=3, seed=2, digest_bits=512, digest_hashes=3),
    )


def _drive(sim: P3QSimulation, lazy_cycles: int) -> None:
    sim.bootstrap_random_views()
    sim.run_lazy(lazy_cycles)
    workload = QueryWorkloadGenerator(sim.dataset, seed=2)
    sim.issue_queries([workload.query_for(user_id=uid) for uid in sim.dataset.user_ids[:3]])
    sim.run_eager(6, stop_when_idle=False)


def _assert_users_reached(sim: P3QSimulation, reference: Dict[str, object]) -> None:
    """``users_reached`` is the reference's forward receivers plus the querier."""
    assert reference["query_ids"]
    for query_id in reference["query_ids"]:
        forwarded = reference["query_receivers"].get((query_id, KIND_REMAINING_FORWARD), set())
        querier = sim.sessions()[query_id].query.querier
        assert sim.users_reached(query_id) == forwarded | {querier}


class TestFlushSemantics:
    def test_aggregates_identical_with_and_without_flush(self, monkeypatch):
        monkeypatch.setattr(stats_module, "FOLD_ROWS", 7)
        stats = StatsCollector()
        rows = keep_every_row(stats)
        _record_burst(stats)
        assert len(rows) == 40 and stats.buffered_rows == 40 % 7
        assert collector_views(stats) == reference_views(rows)
        stats.flush()
        assert collector_views(stats) == reference_views(rows)

    def test_query_receivers_exact_across_flushes(self, monkeypatch):
        monkeypatch.setattr(stats_module, "FOLD_ROWS", 7)
        stats = StatsCollector()
        rows = keep_every_row(stats)
        _record_burst(stats)
        stats.flush()
        # More traffic after the flush: both epochs must contribute.
        stats.record(9, 1, 4, "kind_b", 7, query_id=0)
        assert stats.buffered_rows == 1
        assert stats.query_receivers(0, "kind_b") == reference_views(rows)[
            "query_receivers"
        ][0, "kind_b"]

    def test_flush_drops_rows(self):
        stats = StatsCollector()
        _record_burst(stats)
        assert stats.buffered_rows == 40
        assert stats.flush() == 40
        assert stats.buffered_rows == 0
        # Aggregates survive the drop.
        assert stats.total_messages() == 40

    def test_record_folds_at_fold_rows(self, monkeypatch):
        monkeypatch.setattr(stats_module, "FOLD_ROWS", 3)
        stats = StatsCollector()
        stats.record(0, 1, 2, "kind_a", 1)
        stats.record(0, 1, 2, "kind_a", 1)
        assert stats.buffered_rows == 2
        stats.record(0, 1, 2, "kind_a", 1)
        assert stats.buffered_rows == 0
        assert stats.total_bytes("kind_a") == 3


class TestSimulationFlushEquivalence:
    def test_flushed_simulation_matches_unflushed_aggregates(self, monkeypatch):
        """End to end: a run folding every 64 rows reports the reference's
        traffic aggregates and users reached."""
        monkeypatch.setattr(stats_module, "FOLD_ROWS", 64)
        sim = _simulation(num_users=30)
        rows = keep_every_row(sim.stats)
        _drive(sim, lazy_cycles=4)
        assert len(rows) > 10 * 64
        reference = reference_views(rows)
        assert collector_views(sim.stats) == reference
        _assert_users_reached(sim, reference)

    def test_default_simulation_never_holds_more_than_fold_rows(self):
        """A default-config run past ``FOLD_ROWS`` messages folds by itself."""
        sim = _simulation(num_users=100)
        rows = keep_every_row(sim.stats)
        held = []
        record = sim.stats.record

        def record_and_measure(*row):
            record(*row)
            held.append(sim.stats.buffered_rows)

        sim.stats.record = record_and_measure
        _drive(sim, lazy_cycles=5)
        assert len(rows) > stats_module.FOLD_ROWS
        assert max(held) < stats_module.FOLD_ROWS
        reference = reference_views(rows)
        assert collector_views(sim.stats) == reference
        _assert_users_reached(sim, reference)
