"""Tests for the simulation-fuzzing subsystem (``repro.simtest``).

Covers the spec/generator layer (determinism, JSON round-trips), the runner
(clean runs, checker neutrality), the invariant
checkers (each must fire on a purpose-built mutation of the system), the
greedy shrinker, and the CLI driver including its self-check mode.
"""

from __future__ import annotations

import json

import pytest

from repro.gossip import sizes
from repro.p3q.eager import EagerGossipProtocol
from repro.simtest import (
    REGISTRY,
    ScenarioGenerator,
    ScenarioSpec,
    default_checkers,
    run_scenario,
    shrink,
)
from repro.simtest.cli import broken_byte_pricing, main
from repro.simtest.invariants import reference_kind, reference_price
from repro.simtest.spec import (
    ChurnEvent,
    CommunityChurnEvent,
    DynamicsSpec,
    GeneratorRanges,
)
from repro.simulator.transport import DigestAdvertisement
from repro.gossip.views import PersonalNetwork


#: A fast spec used wherever a concrete scenario is needed.
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
    lazy_cycles=3,
    eager_cycles=8,
    num_queries=3,
    seed=7,
)


class TestSpec:
    def test_generator_is_deterministic_and_indexed(self):
        a = ScenarioGenerator(5)
        b = ScenarioGenerator(5)
        assert [a.spec(i) for i in range(10)] == [b.spec(i) for i in range(10)]
        # Indexed access: spec(7) does not depend on generating 0..6 first.
        assert ScenarioGenerator(5).spec(7) == a.spec(7)

    def test_different_master_seeds_differ(self):
        assert ScenarioGenerator(1).spec(0) != ScenarioGenerator(2).spec(0)

    def test_json_round_trip(self):
        spec = ScenarioGenerator(0).spec(4)
        assert spec.churn and spec.dynamics  # seed 0 / index 4 has both
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_with_every_condition(self):
        from repro.simulator.conditions import AsymmetrySpec, PartitionSpec

        spec = FAST_SPEC.but(
            partition=PartitionSpec(components=3, split_cycle=2, heal_cycle=6),
            asymmetry=AsymmetrySpec(
                degraded_fraction=0.2,
                link_loss_rate=0.1,
                link_delay_cycles=2,
                nat_fraction=0.1,
            ),
            free_rider_fraction=0.25,
            churn=(
                ChurnEvent(
                    phase="lazy", cycle=1, fraction=0.2, rejoin_after=1, mode="crash"
                ),
            ),
            community_churn=(
                CommunityChurnEvent(
                    phase="eager", cycle=1, community=1, rejoin_after=2, mode="crash"
                ),
            ),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_names_every_unknown_field(self):
        """A spec written by another commit (retired or future fields) is a
        ValueError naming all of them, not a TypeError on the first."""
        payload = dict(FAST_SPEC.to_dict(), workers=2, engine_executor="pool")
        with pytest.raises(ValueError) as error:
            ScenarioSpec.from_dict(payload)
        assert str(error.value) == "unknown scenario field(s): engine_executor, workers"

    def test_repro_command_embeds_the_spec(self):
        spec = FAST_SPEC
        command = spec.repro_command()
        assert "python -m repro simtest" in command
        assert "--spec-json" in command

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FAST_SPEC.but(network_size=18)  # >= num_users
        with pytest.raises(ValueError):
            FAST_SPEC.but(churn=(ChurnEvent(phase="lazy", cycle=99, fraction=0.2),))
        with pytest.raises(ValueError):
            FAST_SPEC.but(dynamics=DynamicsSpec(at_cycle=99, change_fraction=0.2))
        with pytest.raises(ValueError):
            ChurnEvent(phase="lazy", cycle=1, fraction=0.9)

    def test_rejoins_outside_the_horizon_rejected(self):
        # FAST_SPEC has lazy_cycles=3: a rejoin at cycle 2+1 == 3 would land
        # on a cycle that never runs and silently strand the departed users.
        with pytest.raises(ValueError, match="rejoin"):
            FAST_SPEC.but(
                churn=(ChurnEvent(phase="lazy", cycle=2, fraction=0.2, rejoin_after=1),)
            )
        ok = FAST_SPEC.but(
            churn=(ChurnEvent(phase="lazy", cycle=1, fraction=0.2, rejoin_after=1),)
        )
        assert ok.churn[0].rejoin_after == 1

    def test_generated_rejoins_always_fire(self):
        """Every sampled rejoin lands strictly inside its phase horizon."""
        for spec in ScenarioGenerator(0).specs(200):
            for event in spec.churn:
                horizon = (
                    spec.lazy_cycles if event.phase == "lazy" else spec.eager_cycles
                )
                if event.rejoin_after:
                    assert event.cycle + event.rejoin_after < horizon

    def test_generated_specs_are_valid_and_varied(self):
        specs = list(ScenarioGenerator(3).specs(40))
        assert any(spec.direct_equivalent for spec in specs)
        assert any(spec.loss_rate and not spec.delay_cycles for spec in specs)
        assert any(spec.delay_cycles for spec in specs)
        assert any(spec.churn for spec in specs)
        assert any(spec.dynamics for spec in specs)

    def test_generated_specs_cover_adversarial_dimensions(self):
        specs = list(ScenarioGenerator(3).specs(120))
        assert any(spec.partition is not None for spec in specs)
        assert any(
            spec.asymmetry is not None and not spec.asymmetry.is_null
            for spec in specs
        )
        assert any(spec.free_rider_fraction > 0.0 for spec in specs)
        assert any(
            event.mode == "crash" for spec in specs for event in spec.churn
        )
        assert any(spec.community_churn for spec in specs)

    def test_adversarial_profile_skews_toward_conditions(self):
        base = list(ScenarioGenerator(3).specs(60))
        hostile = list(
            ScenarioGenerator(3, ranges=GeneratorRanges.adversarial()).specs(60)
        )

        def count(specs):
            return sum(
                1
                for spec in specs
                if spec.partition is not None
                or (spec.asymmetry is not None and not spec.asymmetry.is_null)
                or spec.free_rider_fraction > 0.0
                or spec.community_churn
            )

        assert count(hostile) > count(base)


class TestRunner:
    def test_fast_spec_passes_all_invariants(self):
        result = run_scenario(FAST_SPEC)
        assert result.ok, result.violation
        applicable = {c.name for c in default_checkers(FAST_SPEC)}
        assert set(result.checked) == applicable
        # The adversarial checkers gate on their conditions being present.
        assert set(REGISTRY) - applicable == {
            "partition-isolation",
            "free-rider-containment",
        }

    def test_checkers_do_not_perturb_the_run(self):
        """Observers and hooks are passive: fingerprints match bit for bit."""
        with_checkers = run_scenario(FAST_SPEC)
        without = run_scenario(FAST_SPEC, checkers=())
        assert with_checkers.ok and without.ok
        assert with_checkers.fingerprint == without.fingerprint

    def test_same_spec_same_fingerprint(self):
        assert run_scenario(FAST_SPEC).fingerprint == run_scenario(FAST_SPEC).fingerprint

    def test_stochastic_scenarios_pass(self):
        lossy = run_scenario(FAST_SPEC.but(loss_rate=0.3))
        assert lossy.ok, lossy.violation
        latency = run_scenario(
            FAST_SPEC.but(delay_cycles=2, loss_rate=0.1)
        )
        assert latency.ok, latency.violation

    def test_churn_and_dynamics_scenarios_pass(self):
        spec = FAST_SPEC.but(
            churn=(
                ChurnEvent(phase="lazy", cycle=1, fraction=0.2, rejoin_after=1),
                ChurnEvent(phase="eager", cycle=2, fraction=0.3),
            ),
            dynamics=DynamicsSpec(at_cycle=1, change_fraction=0.3),
        )
        result = run_scenario(spec)
        assert result.ok, result.violation

    def test_crash_is_reported_not_raised(self, monkeypatch):
        from repro.simtest import runner as runner_module

        def boom(spec):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(runner_module, "build_simulation", boom)
        result = run_scenario(FAST_SPEC)
        assert not result.ok
        assert result.invariant == "crash"
        assert "synthetic crash" in result.violation.detail


class TestInvariantsFire:
    """Every checker must catch a purpose-built breakage of the system."""

    def test_byte_conservation_catches_mutated_pricing(self):
        with broken_byte_pricing():
            result = run_scenario(FAST_SPEC)
        assert result.invariant == "byte-conservation"
        # The mutation is scoped: pricing is intact again afterwards.
        assert run_scenario(FAST_SPEC).ok

    def test_view_bounds_catches_unbounded_random_view(self, monkeypatch):
        from repro.gossip.views import RandomView

        monkeypatch.setattr(RandomView, "_shrink_random", lambda self, rng: None)
        result = run_scenario(FAST_SPEC)
        assert result.invariant == "view-bounds"
        assert "random view" in result.violation.detail

    def test_view_bounds_catches_storage_budget_leak(self, monkeypatch):
        monkeypatch.setattr(
            PersonalNetwork, "_enforce_storage_budget", lambda self: None
        )
        result = run_scenario(FAST_SPEC)
        assert result.invariant == "view-bounds"

    def test_query_lifecycle_catches_retry_after_handoff(self, monkeypatch):
        """An initiator that re-forwards after REPLY_DROPPED must be flagged."""
        original = EagerGossipProtocol.gossip_query_effects

        def retrying(self, initiator, query, remaining, cycle):
            kept = list(remaining)
            result = yield from original(self, initiator, query, remaining, cycle)
            # Pretend the REPLY_DROPPED/DEFERRED hand-off never happened.
            return result if result else kept

        monkeypatch.setattr(EagerGossipProtocol, "gossip_query_effects", retrying)
        spec = FAST_SPEC.but(loss_rate=0.4, eager_cycles=10)
        result = run_scenario(spec)
        assert result.invariant == "query-lifecycle"
        assert "re-forwarded" in result.violation.detail

    def test_recall_convergence_catches_lost_contributions(self, monkeypatch):
        """Silently discarding partial results strands quiescent queries."""
        from repro.p3q.node import P3QNode

        monkeypatch.setattr(
            P3QNode, "receive_partial_result", lambda self, partial: None
        )
        result = run_scenario(FAST_SPEC)
        assert result.invariant == "recall-convergence"
        assert "incomplete" in result.violation.detail

    def test_replica_freshness_catches_future_versions(self, monkeypatch):
        from repro.data.models import UserProfile

        original = UserProfile.copy

        def time_travelling_copy(self):
            clone = original(self)
            clone._version = self._version + 1000
            return clone

        monkeypatch.setattr(UserProfile, "copy", time_travelling_copy)
        result = run_scenario(FAST_SPEC)
        assert result.invariant == "replica-freshness"
        assert "live version" in result.violation.detail


class TestReferenceModel:
    def test_reference_agrees_with_production_sizes(self):
        """The independent pricer and gossip.sizes agree on a digest message."""
        message = DigestAdvertisement(digests=(), view="random")
        assert reference_price(message) == sizes.total_bytes(message) == 0
        assert reference_kind(message) == "random_view_digests"


class TestShrink:
    def test_shrinker_minimises_a_pricing_failure(self):
        spec = ScenarioGenerator(0).spec(4)
        assert spec.churn and spec.dynamics and spec.loss_rate > 0
        with broken_byte_pricing():
            failing = run_scenario(spec)
            assert failing.invariant == "byte-conservation"
            shrunk = shrink(spec, "byte-conservation", max_runs=40)
        minimal = shrunk.spec
        assert shrunk.invariant == "byte-conservation"
        # The stressors irrelevant to a pricing bug must all be gone.
        assert minimal.churn == ()
        assert minimal.dynamics is None
        assert minimal.direct_equivalent
        assert minimal.num_users < spec.num_users
        # The minimal spec replays the failure standalone.
        with broken_byte_pricing():
            assert run_scenario(minimal).invariant == "byte-conservation"

    def test_shrink_refuses_a_passing_spec(self):
        with pytest.raises(ValueError):
            shrink(FAST_SPEC, "byte-conservation", max_runs=4)


class TestCli:
    def test_batch_passes_and_is_deterministic(self, capsys):
        assert main(["--seeds", "3", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        assert main(["--seeds", "3", "--seed", "0"]) == 0
        assert capsys.readouterr().out == first
        assert "3 scenario(s) run, 0 failure(s)" in first

    def test_single_spec_replay(self, capsys):
        assert main(["--spec-json", FAST_SPEC.to_json()]) == 0
        out = capsys.readouterr().out
        assert "[spec] ok" in out

    def test_spec_from_another_commit_is_one_line_and_exit_2(self, capsys):
        payload = dict(FAST_SPEC.to_dict(), workers=2)
        assert main(["--spec-json", json.dumps(payload)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "unknown scenario field(s): workers\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--spec-json", "5"], "scenario must be a JSON object, got int"),
            (["--spec-json", "[1,2]"], "scenario must be a JSON object, got list"),
            (
                ["--spec-json", json.dumps({"churn": [
                    {"phase": "lazy", "cycle": 1, "fraction": 0.2, "bogus": 1}
                ]})],
                "unknown churn event field(s): bogus",
            ),
            (["--spec-json", '{"num_users": "ten"}'], "scenario field num_users must be int"),
            (["--spec", "missing.json"], "missing.json"),
        ],
        ids=["number", "list", "unknown-event-key", "wrong-type", "missing-file"],
    )
    def test_malformed_spec_is_a_usage_error(self, argv, named, capsys, monkeypatch, tmp_path):
        """Exit 2 with the field named, never a traceback under exit 1 (the
        code of a found violation)."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_list_invariants(self, capsys):
        assert main(["--list-invariants"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_failure_reports_minimal_repro_command(self, capsys):
        with broken_byte_pricing():
            code = main(["--seeds", "2", "--seed", "0", "--max-shrink-runs", "25"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation: [byte-conservation]" in out
        assert "reproduce with:" in out
        assert "--spec-json" in out

    def test_self_check_catches_and_exits_zero(self, capsys):
        assert main(["--self-check", "--seeds", "3", "--max-shrink-runs", "20"]) == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out
        # And the pricing is intact again after the self-check.
        assert main(["--seeds", "1", "--seed", "0"]) == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main(["--seeds", "0"])
        with pytest.raises(SystemExit):
            main(["--spec-json", "{}", "--spec", "nope.json"])


class TestRegistry:
    def test_applicability_filters(self):
        lossy = ScenarioSpec.from_json(
            FAST_SPEC.but(loss_rate=0.2).to_json()
        )
        names = {checker.name for checker in default_checkers(lossy)}
        assert "recall-convergence" not in names
        assert "byte-conservation" in names
        direct_names = {checker.name for checker in default_checkers(FAST_SPEC)}
        assert "recall-convergence" in direct_names
