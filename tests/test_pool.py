"""Persistent shard worker pool: bit-identity, reuse, loud failure.

The pool executor (see ``repro/simulator/pool.py``) prices each cycle on
long-lived workers over shared columnar state.  Its contract:

* **bit-identity for any worker count** -- pool runs must match the serial
  engine fingerprint (and the transport golden) exactly, because installs
  are version-validated advisory cache entries;
* **the pool is actually reused** -- one fork at creation, then pure
  message passing (``barriers_served`` counts the reuse);
* **death is loud** -- a worker that dies mid-barrier raises
  :class:`ShardWorkerError` naming the shard and the cycle instead of
  hanging on the result queue.

The pool executor is forced in these tests so the real multi-process path
runs even on single-core CI machines (where ``auto`` would pick inline).
"""

from __future__ import annotations

import json

import pytest

from repro.data import ChangeDay, ProfileChange, SyntheticConfig, generate_dataset
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator import ShardedEngine, ShardWorkerError, contiguous_row_slabs
from repro.simulator.shard import EXECUTOR_POOL
from repro.simtest.runner import run_scenario as run_simtest_scenario
from repro.simtest.spec import ScenarioSpec

from test_transport_equivalence import GOLDEN_PATH, run_scenario as golden_scenario


def _simulation(workers: int = 1, executor: str = "auto") -> P3QSimulation:
    dataset = generate_dataset(
        SyntheticConfig(
            num_users=36,
            num_items=260,
            num_tags=80,
            num_communities=4,
            mean_actions_per_user=22,
            seed=11,
        )
    )
    config = P3QConfig(
        network_size=10,
        storage=4,
        seed=3,
        digest_bits=1_024,
        digest_hashes=4,
        workers=workers,
        engine_executor=executor,
    )
    sim = P3QSimulation(dataset, config)
    sim.bootstrap_random_views()
    return sim


def _fingerprint(sim: P3QSimulation):
    return (
        sorted(sim.stats.bytes_by_kind().items()),
        {uid: node.personal_network.member_ids() for uid, node in sorted(sim.nodes.items())},
        {uid: node.random_view.member_ids() for uid, node in sorted(sim.nodes.items())},
    )


# ------------------------------------------------------------- golden identity


class TestGoldenBitIdentity:
    def test_pool_engine_matches_the_transport_golden(self):
        """The strongest pin: persistent workers, golden-identical run."""
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert golden_scenario({"workers": 2, "engine_executor": "pool"}) == golden


# -------------------------------------------------------- worker invariance


class TestWorkerCountInvariance:
    def test_pool_fingerprints_match_serial_for_all_worker_counts(self):
        serial = _simulation()
        serial.run_lazy(4)
        reference = _fingerprint(serial)
        serial.close()
        for workers in (2, 4):
            sim = _simulation(workers=workers, executor="pool")
            sim.run_lazy(4)
            assert _fingerprint(sim) == reference, f"diverged at workers={workers}"
            sim.close()

    def test_pool_matches_serial_under_profile_dynamics(self):
        """Deltas path: profile changes between cycles reach the workers."""
        change = ChangeDay(
            day=1,
            changes=(
                ProfileChange(user_id=1, new_actions=((9_001, 3), (9_002, 4))),
                ProfileChange(user_id=7, new_actions=((9_003, 5),)),
            ),
        )

        def run(sim: P3QSimulation):
            sim.run_lazy(2)
            sim.apply_profile_changes(change)
            sim.run_lazy(3)
            fp = _fingerprint(sim)
            sim.close()
            return fp

        reference = run(_simulation())
        assert run(_simulation(workers=2, executor="pool")) == reference

    def test_simtest_twin_check_covers_the_pool_executor(self):
        spec = ScenarioSpec(workers=2, lazy_cycles=3, eager_cycles=4)
        result = run_simtest_scenario(spec)
        assert result.ok, result.violation
        assert "worker-count-equivalence" in result.checked


# ------------------------------------------------------------------ pool reuse


class TestPoolReuse:
    def test_one_pool_serves_every_cycle(self):
        sim = _simulation(workers=2, executor="pool")
        engine = sim.engine
        assert isinstance(engine, ShardedEngine)
        assert engine.executor == EXECUTOR_POOL
        sim.run_lazy(4)
        pool = engine._pool
        assert pool is not None
        assert pool.alive()
        assert pool.barriers_served >= 4
        stats = engine.pricing_stats
        assert stats["pool_barriers"] == pool.barriers_served
        assert stats["pairs_predicted"] > 0
        assert stats["entries_installed"] > 0
        assert stats["worker_failures"] == 0
        pids = [process.pid for process in pool._processes]
        sim.run_lazy(2)
        # Still the same worker processes: no re-fork happened.
        assert engine._pool is pool
        assert [process.pid for process in pool._processes] == pids
        sim.close()
        assert not pool.alive()

    def test_close_is_idempotent(self):
        sim = _simulation(workers=2, executor="pool")
        sim.run_lazy(1)
        sim.close()
        sim.close()


# ---------------------------------------------------------------- loud failure


class TestWorkerDeath:
    def test_dead_worker_raises_naming_shard_and_cycle(self):
        sim = _simulation(workers=2, executor="pool")
        engine = sim.engine
        sim.run_lazy(1)
        pool = engine._pool
        assert pool is not None
        victim = pool._processes[1]
        victim.terminate()
        victim.join(timeout=5.0)
        with pytest.raises(ShardWorkerError) as excinfo:
            sim.run_lazy(1)
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "cycle" in message
        sim.close()

    def test_direct_price_on_dead_pool_raises(self):
        from repro.data.columnar import ColumnarStore, DigestMatrix
        from repro.simulator.pool import PersistentShardPool

        store = ColumnarStore.from_action_stream([(0, [(1, 2)]), (1, [(3, 4)])])
        matrix = DigestMatrix(len(store), 256, 3, shared=True)
        matrix.build_rows(store)
        pool = PersistentShardPool(store, matrix, workers=2)
        try:
            entries = pool.price(0, [[(0, 1)], [(1, 0)]], [])
            assert len(entries) == 2
            pool._processes[0].terminate()
            pool._processes[0].join(timeout=5.0)
            with pytest.raises(ShardWorkerError, match="shard 0 .*cycle 7"):
                pool.price(7, [[(0, 1)], [(1, 0)]], [])
        finally:
            pool.close()
            matrix.close()

    def test_shard_count_mismatch_rejected(self):
        from repro.data.columnar import ColumnarStore, DigestMatrix
        from repro.simulator.pool import PersistentShardPool

        store = ColumnarStore.from_action_stream([(0, [(1, 2)])])
        matrix = DigestMatrix(len(store), 256, 3, shared=True)
        pool = PersistentShardPool(store, matrix, workers=2)
        try:
            with pytest.raises(ValueError):
                pool.price(0, [[]], [])
        finally:
            pool.close()
            matrix.close()


# ------------------------------------------------------------------- row slabs


class TestRowSlabs:
    def test_slabs_partition_the_row_range(self):
        slabs = contiguous_row_slabs(10, 3)
        assert [list(slab) for slab in slabs] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_workers_than_rows(self):
        slabs = contiguous_row_slabs(2, 4)
        assert [list(slab) for slab in slabs] == [[0], [1], [], []]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            contiguous_row_slabs(5, 0)


# ------------------------------------------------------------- parallel builds


class TestPoolDigestBuild:
    def test_pool_build_rows_writes_the_shared_matrix(self):
        from repro.data.columnar import ColumnarStore, DigestMatrix
        from repro.simulator.pool import PersistentShardPool, contiguous_row_slabs

        actions = [(uid, [(uid + 1, 2), (uid + 5, 3)]) for uid in range(8)]
        store = ColumnarStore.from_action_stream(actions)
        shared = DigestMatrix(len(store), 256, 3, shared=True)
        reference = DigestMatrix(len(store), 256, 3)
        reference.build_rows(store)
        pool = PersistentShardPool(store, shared, workers=2)
        try:
            built = pool.build_rows(contiguous_row_slabs(len(store), 2))
            assert built == len(store)
            for row in range(len(store)):
                assert shared.row_bytes_of(row) == reference.row_bytes_of(row)
                assert shared.row_version(row) == reference.row_version(row)
        finally:
            pool.close()
            shared.close()
