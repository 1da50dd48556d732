"""Transport-equivalence tests.

The transport layer's contract is that a :class:`Transport` with no
condition (the default) reproduces the seed's direct-call semantics
*bit-identically*.  The
golden fixture ``tests/data/transport_golden.json`` was generated by running
:func:`run_scenario` against the seed tree (before the transport layer
existed); the tests assert that the refactored stack still produces exactly
the same traffic totals, views, replicas and query results.  This mirrors the
bloom-equivalence pattern: the old behaviour is pinned as data, not as code.

The lossy/latency tests assert the stochastic conditions are deterministic
under a fixed seed, that their zero configurations degrade to the direct
semantics, and that loss actually perturbs the run.

Regenerate the golden (only ever against a tree known to be seed-equivalent)
with::

    PYTHONPATH=src python tests/test_transport_equivalence.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro.data.queries import QueryWorkloadGenerator
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.simulator.conditions import AsymmetrySpec, PartitionSpec
from repro.simulator.stats import (
    KIND_COMMON_ITEMS,
    KIND_DIGESTS,
    KIND_FULL_PROFILES,
    KIND_PARTIAL_RESULT,
    KIND_RANDOM_VIEW,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "transport_golden.json"

ALL_KINDS = (
    KIND_RANDOM_VIEW,
    KIND_DIGESTS,
    KIND_COMMON_ITEMS,
    KIND_FULL_PROFILES,
    KIND_REMAINING_FORWARD,
    KIND_REMAINING_RETURN,
    KIND_PARTIAL_RESULT,
)

TRACE = SyntheticConfig(
    num_users=48,
    num_items=300,
    num_tags=90,
    num_communities=5,
    mean_actions_per_user=25,
    seed=11,
)


def run_scenario(overrides: Optional[Dict] = None) -> Dict:
    """One deterministic end-to-end simulation, fingerprinted exactly."""
    return _fingerprint(*run_simulation(overrides))


def run_simulation(overrides: Optional[Dict] = None):
    """The golden scenario, returned live as ``(simulation, eager_cycles)``.

    The scenario exercises every message type: bootstrap, organic lazy
    convergence, query issuing, eager drain, churn mid-run and a final lazy
    stretch over the shrunken population.
    """
    config_kwargs = dict(
        network_size=12,
        storage=4,
        random_view_size=5,
        k=8,
        exchange_size=10,
        digest_bits=1_024,
        digest_hashes=4,
        seed=123,
    )
    config_kwargs.update(overrides or {})
    config = P3QConfig(**config_kwargs)
    simulation = P3QSimulation(generate_dataset(TRACE), config)
    simulation.bootstrap_random_views()
    simulation.run_lazy(6)

    generator = QueryWorkloadGenerator(simulation.dataset, seed=5)
    queries = generator.generate(simulation.dataset.user_ids[:6])
    simulation.issue_queries(queries)
    eager_cycles = simulation.run_eager(cycles=10)

    simulation.depart_users(simulation.dataset.user_ids[40:44])
    simulation.run_lazy(3)

    return simulation, eager_cycles


def _fingerprint(simulation: P3QSimulation, eager_cycles: int) -> Dict:
    stats = simulation.stats
    sessions = simulation.sessions()
    results = {}
    for query_id, session in sorted(sessions.items()):
        last = session.snapshots[-1]
        results[str(query_id)] = {
            "items": list(last.items),
            "scores": [round(score, 9) for _, score in last.top_k],
            "profiles_used": last.profiles_used,
            "coverage": round(session.coverage, 9),
            "remaining": sorted(session.remaining),
            "reached": sorted(simulation.users_reached(query_id)),
        }
    fingerprint = {
        "eager_cycles": eager_cycles,
        "bytes_by_kind": {kind: stats.total_bytes(kind) for kind in ALL_KINDS},
        "messages_by_kind": {kind: stats.total_messages(kind) for kind in ALL_KINDS},
        "total_bytes": stats.total_bytes(),
        "total_messages": stats.total_messages(),
        "bytes_by_cycle": {str(c): v for c, v in sorted(stats.bytes_by_cycle().items())},
        "query_bytes": {
            str(qid): stats.query_bytes(qid) for qid in stats.query_ids()
        },
        "networks": {
            str(uid): members
            for uid, members in sorted(simulation.discovered_networks().items())
        },
        "stored": {
            str(uid): node.personal_network.stored_ids()
            for uid, node in sorted(simulation.nodes.items())
        },
        "replica_versions": {
            str(uid): {str(s): v for s, v in sorted(versions.items())}
            for uid, versions in sorted(simulation.stored_replica_versions().items())
        },
        "random_views": {
            str(uid): node.random_view.member_ids()
            for uid, node in sorted(simulation.nodes.items())
        },
        "results": results,
    }
    # Round-trip through JSON so tuples/ints normalise to what the golden holds.
    return json.loads(json.dumps(fingerprint))


# ---------------------------------------------------------------- equivalence


def test_direct_transport_is_bit_identical_to_seed():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario() == golden


def test_explicit_direct_transport_matches_default():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    explicit = {"loss_rate": 0.0, "delay_cycles": 0, "partition": None, "asymmetry": None}
    assert run_scenario(explicit) == golden


def test_lossless_lossy_transport_degrades_to_direct():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario({"loss_rate": 0.0}) == golden


def test_zero_delay_latency_transport_degrades_to_direct():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario({"delay_cycles": 0}) == golden


def test_conditioned_transport_with_no_conditions_degrades_to_direct():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario({"loss_rate": 0.0, "delay_cycles": 0}) == golden


def test_null_asymmetry_degrades_to_direct():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario({"asymmetry": AsymmetrySpec()}) == golden


def test_never_active_partition_degrades_to_direct():
    """A partition whose window lies beyond the run consumes no randomness."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    partition = PartitionSpec(components=2, split_cycle=10_000, heal_cycle=10_001)
    assert run_scenario({"partition": partition}) == golden


def test_free_rider_fraction_rounding_to_zero_degrades_to_direct():
    """48 users at 0.5% rounds to zero riders: the run is untouched."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert run_scenario({"free_rider_fraction": 0.005}) == golden


# --------------------------------------------------------------- determinism


def test_lossy_transport_is_deterministic_under_fixed_seed():
    first = run_scenario({"loss_rate": 0.25})
    second = run_scenario({"loss_rate": 0.25})
    assert first == second


def test_lossy_transport_actually_perturbs_the_run():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    lossy = run_scenario({"loss_rate": 0.25})
    assert lossy["total_bytes"] != golden["total_bytes"]


def test_latency_transport_is_deterministic_under_fixed_seed():
    first = run_scenario({"delay_cycles": 2})
    second = run_scenario({"delay_cycles": 2})
    assert first == second


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(run_scenario(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"golden written to {GOLDEN_PATH}")
    else:
        print(__doc__)
