"""Sharded cycle engine: bit-identity, worker invariance, pricing plumbing.

The contract under test (see ``repro/simulator/shard.py``) is that the
sharded engine is **bit-identical to the serial engine for any worker
count**: the parallel phase only pre-warms version-validated cache entries
and the apply phase is the unmodified serial schedule.  The strongest pins:

* the transport golden fixture, replayed through the sharded engine, must
  match byte for byte (``test_pool.py`` replays it through real workers);
* randomized simtest scenarios must fingerprint-match across
  ``workers in {1, 2, 4}``;
* deliberately *corrupt* pricing installs (wrong versions, wrong pair)
  must change nothing -- the read-side version validation is what the
  whole design leans on.

The pool executor is forced in these tests so the real multi-process path
runs even on single-core CI machines (where ``auto`` would pick inline).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.data import SyntheticConfig, generate_dataset
from repro.data.queries import QueryWorkloadGenerator
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator import (
    ShardedEngine,
    SimulationEngine,
    derive_rng,
    partition_shards,
    resolve_executor,
)
from repro.simulator.rng import SeededRngFactory
from repro.simulator.shard import EXECUTOR_INLINE, EXECUTOR_POOL
from repro.simtest.runner import _execute, run_scenario as run_simtest_scenario
from repro.simtest.spec import ScenarioGenerator, ScenarioSpec

from test_transport_equivalence import GOLDEN_PATH, run_scenario as golden_scenario


# ------------------------------------------------------------------ partitions


class TestPartitioning:
    def test_round_robin_disjoint_union(self):
        ids = list(range(17))
        shards = partition_shards(ids, 4)
        assert len(shards) == 4
        flat = [uid for shard in shards for uid in shard]
        assert sorted(flat) == ids
        assert shards[0] == (0, 4, 8, 12, 16)
        assert shards[3] == (3, 7, 11, 15)

    def test_single_worker_is_identity(self):
        ids = [3, 1, 2]
        assert partition_shards(ids, 1) == [(3, 1, 2)]

    def test_more_workers_than_nodes_leaves_empty_shards(self):
        shards = partition_shards([1, 2], 4)
        assert shards == [(1,), (2,), (), ()]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            partition_shards([1], 0)


class TestExecutorResolution:
    def test_one_worker_is_always_inline(self):
        assert resolve_executor("auto", 1) == EXECUTOR_INLINE
        assert resolve_executor("pool", 1) == EXECUTOR_INLINE

    def test_explicit_inline_honoured(self):
        assert resolve_executor("inline", 4) == EXECUTOR_INLINE

    def test_explicit_pool_honoured_on_posix(self):
        assert resolve_executor("pool", 2) == EXECUTOR_POOL

    def test_unknown_executor_rejected(self):
        for name in ("threads", "fork"):
            with pytest.raises(ValueError):
                resolve_executor(name, 2)


# ------------------------------------------------------------ counter streams


class TestCounterRng:
    def test_same_coordinates_same_draws(self):
        factory = SeededRngFactory(7)
        a = factory.counter_stream("shard-2", 13)
        b = factory.counter_stream("shard-2", 13)
        assert a is not b
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_counters_diverge(self):
        factory = SeededRngFactory(7)
        a = factory.counter_stream("shard-2", 13)
        b = factory.counter_stream("shard-2", 14)
        assert a.random() != b.random()

    def test_counter_streams_do_not_touch_cached_streams(self):
        factory = SeededRngFactory(7)
        before = factory.for_purpose("scheduler").random()
        factory2 = SeededRngFactory(7)
        factory2.counter_stream("anything", 0).random()
        assert factory2.for_purpose("scheduler").random() == before

    def test_derive_rng_is_pure(self):
        assert derive_rng(1, "a", 2).random() == derive_rng(1, "a", 2).random()


# ------------------------------------------------------------- golden identity


class TestGoldenBitIdentity:
    def test_inline_sharded_engine_matches_the_transport_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert golden_scenario({"workers": 4, "engine_executor": "inline"}) == golden


# -------------------------------------------------------- worker invariance


def _spec_fingerprint(spec: ScenarioSpec):
    return _execute(spec, ())


class TestWorkerCountInvariance:
    def test_randomized_specs_fingerprint_match_across_worker_counts(self):
        """Property: workers in {1, 2, 4} produce identical run fingerprints.

        The specs come from the seeded generator (shrunk to small fast
        shapes that keep churn/dynamics inside the clamped horizons via the
        shrinker's own clamp helper).
        """
        from repro.simtest.shrink import _clamp_schedule

        generator = ScenarioGenerator(master_seed=2026)
        checked = 0
        for index in range(4):
            raw = generator.spec(index)
            spec = _clamp_schedule(raw, min(raw.lazy_cycles, 3), min(raw.eager_cycles, 4))
            spec = spec.but(workers=1)
            reference = _spec_fingerprint(spec)
            for workers in (2, 4):
                assert _spec_fingerprint(spec.but(workers=workers)) == reference, (
                    f"spec {index} diverged at workers={workers}"
                )
            checked += 1
        assert checked == 4

    def test_simtest_runner_checks_the_serial_twin(self):
        spec = ScenarioSpec(workers=2, lazy_cycles=3, eager_cycles=4)
        result = run_simtest_scenario(spec)
        assert result.ok, result.violation
        assert "worker-count-equivalence" in result.checked


# ------------------------------------------------ pricing-install robustness


def _tiny_simulation(workers: int = 1, executor: str = "auto") -> P3QSimulation:
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


def _state_fingerprint(sim: P3QSimulation):
    return (
        sorted(sim.stats.bytes_by_kind().items()),
        {uid: node.personal_network.member_ids() for uid, node in sorted(sim.nodes.items())},
        {uid: node.random_view.member_ids() for uid, node in sorted(sim.nodes.items())},
    )


class TestPricingInstallSafety:
    def test_stale_installs_cannot_change_behaviour(self):
        """Entries whose versions do not match the live state are inert.

        This is the validation the sharded engine's safety argument rests
        on: an install is *trusted only at the exact versions it names*, so
        entries from outdated snapshots (the realistic failure: a worker
        priced against state that changed before the merge) are never
        served.  A worker can of course not produce a wrong value *at*
        matching versions -- it runs the same pure pricing code on content
        those versions denote.
        """
        clean = _tiny_simulation()
        clean.run_lazy(3)
        reference = _state_fingerprint(clean)

        poisoned = _tiny_simulation()
        rng = random.Random(9)
        users = list(poisoned.nodes)
        garbage = []
        for _ in range(200):
            receiver = rng.choice(users)
            subject = rng.choice(users)
            garbage.append(
                (
                    receiver,
                    10_000 + rng.randrange(50),  # version no profile ever reaches
                    subject,
                    10_000 + rng.randrange(50),
                    frozenset(rng.sample(range(260), k=5)),  # nonsense payload
                )
            )
        assert poisoned.digest_cache.install_common_entries(garbage) == len(garbage)
        poisoned.run_lazy(3)
        assert _state_fingerprint(poisoned) == reference

    def test_inline_executor_is_a_pass_through(self):
        sim = _tiny_simulation(workers=4, executor="inline")
        assert isinstance(sim.engine, ShardedEngine)
        sim.run_lazy(2)
        assert sim.engine.pricing_stats["cycles_priced"] == 0

    def test_workers_one_uses_the_serial_engine(self):
        sim = _tiny_simulation(workers=1)
        assert type(sim.engine) is SimulationEngine

    def test_config_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            P3QConfig(workers=0)
        with pytest.raises(ValueError):
            P3QConfig(engine_executor="threads")


# -------------------------------------------------- shard-parallel bootstrap


class TestParallelBootstrap:
    def test_pool_bootstrap_matches_serial_bootstrap(self):
        serial = _tiny_simulation(workers=1)
        forked = _tiny_simulation(workers=2, executor="pool")
        assert {
            uid: node.random_view.member_ids() for uid, node in sorted(serial.nodes.items())
        } == {
            uid: node.random_view.member_ids() for uid, node in sorted(forked.nodes.items())
        }
        # And the runs that follow stay identical.
        serial.run_lazy(2)
        forked.run_lazy(2)
        assert _state_fingerprint(serial) == _state_fingerprint(forked)
        forked.close()

    def test_installed_digests_match_locally_built_ones(self):
        """Digest rows built by the pool workers are adopted as-is; they
        must equal what the serial engine builds per profile."""
        sim = _tiny_simulation()
        assert sim.digest_matrix is None  # serial, object dataset: no rows
        forked = _tiny_simulation(workers=2, executor="pool")
        assert forked.digest_matrix is not None
        for uid, node in forked.nodes.items():
            digest = forked.digest_cache.digest_for(node.profile)
            rebuilt = sim.digest_cache.digest_for(sim.nodes[uid].profile)
            assert digest.bloom == rebuilt.bloom
            assert digest.version == rebuilt.version
        forked.close()


# ------------------------------------------------------------- spec plumbing


class TestSpecWorkersDimension:
    def test_workers_round_trips_through_json(self):
        spec = ScenarioSpec(workers=4)
        assert ScenarioSpec.from_json(spec.to_json()).workers == 4

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workers=0)

    def test_worker_dimension_comes_from_an_independent_stream(self):
        """Enabling/disabling the dimension leaves every other field alone."""
        from dataclasses import replace

        from repro.simtest.spec import GeneratorRanges

        with_dim = ScenarioGenerator(master_seed=5)
        without = ScenarioGenerator(
            master_seed=5, ranges=replace(GeneratorRanges(), p_workers=0.0)
        )
        for index in range(30):
            a = with_dim.spec(index)
            b = without.spec(index)
            assert a.but(workers=1) == b

    def test_generator_samples_workers_eventually(self):
        generator = ScenarioGenerator(master_seed=5)
        workers = {generator.spec(i).workers for i in range(60)}
        assert workers - {1}, "p_workers=0.2 should hit within 60 specs"
        assert workers - {1} <= {2, 4}
