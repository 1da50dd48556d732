"""End-to-end tests of the adversarial conditions through the full stack.

Property tests for partition semantics (isolation while the cut is active,
byte conservation of cut drops, post-heal liveness), crash-recovery
regressions (stale-profile restore, digest-cache eviction for resurrected
nodes, sharded-engine bit-equivalence under crash churn), free-rider
containment and correlated community churn -- plus the zero-condition
equivalence of every new condition at the simtest level (the transport-level
golden pins live in ``test_transport_equivalence.py``).
"""

from __future__ import annotations

import pytest

from repro.data.queries import QueryWorkloadGenerator
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.simtest import run_scenario
from repro.simtest.spec import ChurnEvent, DynamicsSpec, ScenarioSpec
from repro.simulator.conditions import AsymmetrySpec, PartitionCut, PartitionSpec
from repro.simulator.transport import DELIVERED, REPLY_DROPPED

#: The fast spec of ``test_simtest`` restated here (the module is standalone).
FAST_SPEC = ScenarioSpec(
    num_users=18,
    num_items=120,
    num_tags=40,
    num_communities=3,
    mean_actions_per_user=16,
    network_size=8,
    storage=3,
    random_view_size=4,
    k=6,
    alpha=1.0,
    exchange_size=5,
    digest_bits=256,
    digest_hashes=4,
    lazy_cycles=3,
    eager_cycles=8,
    num_queries=6,
    seed=7,
)


def _small_simulation(config_overrides=None, num_users=30):
    config_kwargs = dict(
        network_size=8,
        storage=3,
        random_view_size=4,
        k=6,
        exchange_size=6,
        digest_bits=512,
        digest_hashes=4,
        seed=21,
    )
    config_kwargs.update(config_overrides or {})
    dataset = generate_dataset(
        SyntheticConfig(
            num_users=num_users,
            num_items=150,
            num_tags=45,
            num_communities=3,
            mean_actions_per_user=18,
            seed=13,
        )
    )
    return P3QSimulation(dataset, P3QConfig(**config_kwargs))


# ------------------------------------------------------------------ partition


class TestPartitionProperties:
    def test_no_message_crosses_an_active_cut(self):
        """Direct observation: every delivered wire event respects the cut."""
        partition = PartitionSpec(components=2, split_cycle=2, heal_cycle=5)
        simulation = _small_simulation({"partition": partition})
        transport = simulation.network.transport
        cut = transport.condition(PartitionCut)
        breaches = []

        def observer(event):
            if event.status in (DELIVERED, REPLY_DROPPED) and cut.active():
                if cut.component(event.sender) != cut.component(event.receiver):
                    breaches.append(event)

        transport.add_observer(observer)
        simulation.bootstrap_random_views()
        simulation.run_lazy(8)
        assert not breaches
        assert cut.cut_drops > 0  # the cut actually saw traffic

    def test_partition_scenario_passes_all_invariants(self):
        """The checker stack (isolation + byte conservation) stays green."""
        spec = FAST_SPEC.but(
            partition=PartitionSpec(components=2, split_cycle=2, heal_cycle=6),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation
        assert "partition-isolation" in result.checked
        assert "byte-conservation" in result.checked

    def test_lazy_phase_partition_still_reaches_full_recall(self):
        """A cut confined to the lazy phase cannot wedge query processing."""
        partition = PartitionSpec(components=2, split_cycle=1, heal_cycle=4)
        simulation = _small_simulation({"partition": partition})
        simulation.bootstrap_random_views()
        simulation.run_lazy(6)  # global cycles 0..5: the cut is over by 4
        generator = QueryWorkloadGenerator(simulation.dataset, seed=5)
        queries = generator.generate(simulation.dataset.user_ids[:5])
        sessions = simulation.issue_queries(queries)
        simulation.run_eager(cycles=20)
        assert sessions
        for session in sessions.values():
            assert session.is_complete(), (
                f"query {session.query.query_id} stuck at coverage "
                f"{session.coverage:.3f} after a healed lazy-phase partition"
            )

    def test_held_envelopes_are_delivered_after_heal(self):
        """Nothing stays stuck in flight once the components merge."""
        spec = FAST_SPEC.but(
            delay_cycles=2,
            partition=PartitionSpec(components=2, split_cycle=3, heal_cycle=7),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation

    def test_permanent_partition_is_valid_and_contained(self):
        """A heal cycle beyond the horizon = a cut that never heals."""
        spec = FAST_SPEC.but(
            partition=PartitionSpec(components=3, split_cycle=1, heal_cycle=99),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation


# ------------------------------------------------------------- crash recovery


class TestCrashRecovery:
    def test_recovered_node_returns_with_pre_crash_profile(self):
        simulation = _small_simulation()
        node = simulation.nodes[0]
        profile = node.profile
        version = profile.version
        simulation.crash_users([0])
        # The dataset-side profile object mutates while the node is down
        # (what profile dynamics do in the fuzzer); recovery must roll the
        # node back to its snapshot.
        profile.add_all([(9_999, 8_888)])
        assert profile.version > version
        simulation.recover_users([0])
        assert profile.version == version
        assert 9_999 not in profile.items
        assert simulation.network.is_online(0)

    def test_recovery_evicts_stale_digest_cache_entries(self):
        simulation = _small_simulation()
        cache = simulation.digest_cache
        profile = simulation.nodes[0].profile
        version = profile.version
        cache.digest_for(profile)
        simulation.crash_users([0])
        profile.add_all([(9_999, 8_888)])
        cache.digest_for(profile)  # cache now holds the doomed newer version
        simulation.recover_users([0])
        # The restored node is marked dirty; the cycle-boundary flush evicts.
        cached_before = len(cache._digests)
        flushed = simulation.network.flush_dirty_profiles()
        assert 0 in flushed
        assert len(cache._digests) == cached_before - 1
        assert cache.digest_for(profile).version == version

    def test_quiescent_crash_is_identical_to_resume(self):
        """No profile change while down => restore is skipped, bit for bit."""
        resume = FAST_SPEC.but(
            churn=(ChurnEvent(phase="lazy", cycle=1, fraction=0.3, rejoin_after=1),)
        )
        crash = FAST_SPEC.but(
            churn=(
                ChurnEvent(
                    phase="lazy", cycle=1, fraction=0.3, rejoin_after=1, mode="crash"
                ),
            )
        )
        first = run_scenario(resume)
        second = run_scenario(crash)
        assert first.ok and second.ok
        assert first.fingerprint == second.fingerprint

    def test_crash_with_dynamics_perturbs_the_run(self):
        """With profile changes while down, crash recovery must diverge."""
        dynamics = DynamicsSpec(at_cycle=1, change_fraction=0.5)
        resume = FAST_SPEC.but(
            churn=(ChurnEvent(phase="lazy", cycle=1, fraction=0.4, rejoin_after=1),),
            dynamics=dynamics,
        )
        crash = resume.but(
            churn=(
                ChurnEvent(
                    phase="lazy", cycle=1, fraction=0.4, rejoin_after=1, mode="crash"
                ),
            )
        )
        first = run_scenario(resume)
        second = run_scenario(crash)
        assert first.ok, first.violation
        assert second.ok, second.violation
        assert first.fingerprint != second.fingerprint


# ---------------------------------------------------------------- free riders


class TestFreeRiders:
    def test_free_rider_scenario_passes_containment(self):
        result = run_scenario(FAST_SPEC.but(free_rider_fraction=0.3))
        assert result.ok, result.violation
        assert "free-rider-containment" in result.checked

    def test_free_riders_are_seeded_and_deterministic(self):
        first = run_scenario(FAST_SPEC.but(free_rider_fraction=0.3))
        second = run_scenario(FAST_SPEC.but(free_rider_fraction=0.3))
        assert first.fingerprint == second.fingerprint

    def test_free_riders_actually_perturb_the_run(self):
        base = run_scenario(FAST_SPEC)
        riders = run_scenario(FAST_SPEC.but(free_rider_fraction=0.5))
        assert riders.ok, riders.violation
        assert base.fingerprint != riders.fingerprint

    def test_fraction_rounding_to_zero_nodes_is_bit_identical(self):
        """18 users * 0.02 rounds to zero riders: no stream is consumed."""
        base = run_scenario(FAST_SPEC)
        zero = run_scenario(FAST_SPEC.but(free_rider_fraction=0.02))
        assert zero.ok, zero.violation
        assert base.fingerprint == zero.fingerprint


# ------------------------------------------------------------ community churn


class TestCommunityChurn:
    def test_community_churn_scenario_passes(self):
        spec = FAST_SPEC.but(
            churn=(ChurnEvent(phase="eager", cycle=1, community=1, rejoin_after=2),)
        )
        result = run_scenario(spec)
        assert result.ok, result.violation

    def test_community_crash_churn_passes(self):
        spec = FAST_SPEC.but(
            churn=(
                ChurnEvent(
                    phase="lazy", cycle=1, community=0, rejoin_after=1, mode="crash"
                ),
            ),
            dynamics=DynamicsSpec(at_cycle=1, change_fraction=0.4),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation

    def test_community_churn_perturbs_the_run(self):
        base = run_scenario(FAST_SPEC)
        churned = run_scenario(
            FAST_SPEC.but(
                churn=(ChurnEvent(phase="eager", cycle=1, community=0),)
            )
        )
        assert churned.ok, churned.violation
        assert base.fingerprint != churned.fingerprint

    def test_empty_schedule_is_bit_identical(self):
        base = run_scenario(FAST_SPEC)
        empty = run_scenario(FAST_SPEC.but(churn=()))
        assert base.fingerprint == empty.fingerprint


# ------------------------------------------------- zero-condition equivalence


class TestZeroConditionEquivalence:
    """Every condition's zero form collapses to the direct wire, bit for bit.

    These run through the simtest runner and pin the fingerprints against
    the plain condition-free spec (``tests/test_transport.py`` checks every
    combination of zero forms at the unit level).
    """

    def _direct_fingerprint(self):
        result = run_scenario(FAST_SPEC)
        assert result.ok
        return result.fingerprint

    def test_conditioned_with_no_conditions(self):
        """Every zero form at once, through the runner and its checkers."""
        spec = FAST_SPEC.but(
            loss_rate=0.0,
            delay_cycles=0,
            asymmetry=AsymmetrySpec(),
            partition=PartitionSpec(components=2, split_cycle=10, heal_cycle=999),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation
        assert result.fingerprint == self._direct_fingerprint()

    def test_null_asymmetry_spec(self):
        result = run_scenario(FAST_SPEC.but(asymmetry=AsymmetrySpec()))
        assert result.ok, result.violation
        assert result.fingerprint == self._direct_fingerprint()

    def test_out_of_horizon_partition_window(self):
        """A partition is never 'zero', but one after the horizon never
        activates -- it must not consume randomness either."""
        spec = FAST_SPEC.but(
            partition=PartitionSpec(components=2, split_cycle=10, heal_cycle=999),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation
        assert result.fingerprint == self._direct_fingerprint()


# --------------------------------------------------------------- spec guards


class TestAdversarialSpecValidation:
    def test_churn_mode_is_validated(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            ChurnEvent(phase="lazy", cycle=1, fraction=0.2, mode="explode")

    def test_community_churn_event_is_validated(self):
        with pytest.raises(ValueError, match="phase must be lazy or eager"):
            ChurnEvent(phase="warm", cycle=0, community=0)
        with pytest.raises(ValueError, match="community must be non-negative"):
            ChurnEvent(phase="lazy", cycle=0, community=-1)
        with pytest.raises(ValueError, match="mode must be one of"):
            ChurnEvent(phase="lazy", cycle=0, community=0, mode="burn")
        with pytest.raises(ValueError, match="exactly one of fraction and community"):
            ChurnEvent(phase="lazy", cycle=0, fraction=0.2, community=0)

    def test_spec_rejects_unknown_community(self):
        with pytest.raises(ValueError, match="does not exist"):
            FAST_SPEC.but(
                churn=(ChurnEvent(phase="lazy", cycle=1, community=9),)
            )

    def test_spec_rejects_partition_split_outside_horizon(self):
        with pytest.raises(ValueError, match="split"):
            FAST_SPEC.but(
                    partition=PartitionSpec(split_cycle=50, heal_cycle=60),
            )

    def test_spec_rejects_bad_free_rider_fraction(self):
        with pytest.raises(ValueError, match="free_rider_fraction"):
            FAST_SPEC.but(free_rider_fraction=1.2)
