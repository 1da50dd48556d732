"""Tests for P3QConfig and the querier-side query session state."""

from __future__ import annotations

import pytest

from repro.data.queries import Query
from repro.p3q.config import P3QConfig
from repro.p3q.query import CycleSnapshot, ForwardedQueryState, PartialResult, QuerySession


class TestConfig:
    def test_defaults_are_valid(self):
        config = P3QConfig()
        assert config.alpha == 0.5

    def test_uniform_storage_lookup(self):
        config = P3QConfig(storage=7)
        assert config.storage_for(123) == 7

    def test_per_user_storage_lookup(self):
        config = P3QConfig(storage={1: 5, 2: 10})
        assert config.storage_for(1) == 5
        with pytest.raises(KeyError):
            config.storage_for(99)

    def test_validation(self):
        with pytest.raises(ValueError):
            P3QConfig(network_size=0)
        with pytest.raises(ValueError):
            P3QConfig(alpha=1.5)
        with pytest.raises(ValueError):
            P3QConfig(k=0)
        with pytest.raises(ValueError):
            P3QConfig(random_view_size=0)
        with pytest.raises(ValueError):
            P3QConfig(storage=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("delay_cycles", 1.5, "delay_cycles must be an int"),
            ("loss_rate", True, "loss_rate must be a number"),
        ],
        ids=["delay_cycles-float", "loss_rate-bool"],
    )
    def test_wrong_condition_type_is_rejected_at_construction(self, field, value, message):
        """The config rejects what the transport would, before a simulation
        is built on it."""
        with pytest.raises(TypeError, match=message):
            P3QConfig(network_size=5, **{field: value})

    def test_retired_engine_knobs_are_unknown_fields(self):
        """One cycle engine: the parallel-engine knobs are not accepted and
        ignored, they are gone (see docs/NEGATIVE_RESULTS.md)."""
        with pytest.raises(TypeError):
            P3QConfig(workers=2)
        with pytest.raises(TypeError):
            P3QConfig(engine_executor="pool")


def _query() -> Query:
    return Query(query_id=5, querier=0, tags=(1, 2))


def _partial(sender, scores, contributors, cycle=1, query_id=5):
    return PartialResult(
        query_id=query_id,
        sender=sender,
        scores=scores,
        contributors=tuple(contributors),
        cycle=cycle,
    )


class TestQuerySession:
    def test_local_result_creates_cycle_zero_snapshot(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1, 2, 3])
        session.add_local_result({10: 2.0, 20: 1.0}, contributors=[0, 1])
        snapshot = session.close_cycle(0)
        assert snapshot.cycle == 0
        assert snapshot.items == [10, 20]
        assert snapshot.profiles_used == 2
        assert snapshot.profiles_total == 4  # 3 neighbours + querier

    def test_remaining_list_roundtrip(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1, 2, 3])
        session.set_remaining([2, 3])
        assert session.remaining == [2, 3]

    def test_results_refine_over_cycles(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {20: 5.0}, [1]))
        snapshot = session.close_cycle(1)
        assert snapshot.items == [20]

    def test_coverage_and_completion(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({}, contributors=[0])
        session.close_cycle(0)
        assert not session.is_complete()
        session.receive_partial(_partial(1, {1: 1.0}, [1]))
        session.receive_partial(_partial(2, {2: 1.0}, [2]))
        session.close_cycle(1)
        assert session.is_complete()
        assert session.coverage == pytest.approx(1.0)
        assert session.closed

    def test_duplicate_contributors_are_not_double_counted(self):
        # Neighbour 2 never answers, so the session stays open throughout.
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 4.0}, [1]))
        session.close_cycle(1)
        # The same contributor arrives again: the list must be ignored.
        session.receive_partial(_partial(9, {10: 4.0}, [1]))
        snapshot = session.close_cycle(2)
        assert snapshot.top_k[0][1] == pytest.approx(5.0)
        assert not session.closed

    def test_completion_triggers_exact_results(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1])
        session.add_local_result({10: 1.0, 20: 3.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 3.0, 30: 1.0}, [1]))
        snapshot = session.close_cycle(1)
        assert snapshot.items == [10, 20]  # 10 -> 4, 20 -> 3, 30 -> 1
        assert session.is_complete()

    def test_a_closed_session_keeps_one_set_and_answers_as_before(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        assert session.profiles_used is not session.expected_profiles
        session.receive_partial(_partial(1, {10: 2.0}, [1]))
        session.receive_partial(_partial(2, {20: 1.0}, [2]))
        session.close_cycle(1)
        assert session.closed and session.is_complete()
        assert session.profiles_used is session.expected_profiles == {0, 1, 2}
        assert session.coverage == 1.0 == session.snapshots[-1].coverage
        # What the simtest readers ask of a closed session.
        assert sorted(session.expected_profiles) == [0, 1, 2]
        assert session.profiles_used - session.expected_profiles == set()

    def test_a_stray_contributor_keeps_two_sets(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.receive_partial(_partial(7, {20: 2.0}, [7]))
        session.receive_partial(_partial(1, {20: 1.0}, [1]))
        session.close_cycle(0)
        assert session.closed
        assert session.profiles_used == {0, 1, 7} and session.expected_profiles == {0, 1}
        assert session.profiles_used - session.expected_profiles == {7}

    def test_snapshots_share_what_did_not_move(self):
        session = QuerySession(_query(), k=2, personal_network_ids=[1, 2, 3])
        session.add_local_result({10: 3.0, 20: 1.0}, contributors=[0])
        first = session.close_cycle(0)
        second = session.close_cycle(1)
        assert second.top_k is first.top_k
        session.receive_partial(_partial(1, {30: 2.0}, [1]))
        third = session.close_cycle(2)
        assert third.top_k == [(10, 3.0), (30, 2.0)]
        assert third.top_k[0] is first.top_k[0]
        session.receive_partial(_partial(2, {}, [2]))
        session.receive_partial(_partial(3, {}, [3]))
        closing = session.close_cycle(3)
        assert session.closed and closing.top_k == third.top_k
        # The frozen answer holds the same pairs as the closing snapshot.
        answer = session._merger.current_top_k()
        assert answer == closing.top_k
        assert all(mine is theirs for mine, theirs in zip(answer, closing.top_k))

    def test_snapshot_coverage_property(self):
        snapshot = CycleSnapshot(cycle=1, top_k=[(1, 1.0)], profiles_used=2, profiles_total=4)
        assert snapshot.coverage == 0.5
        empty = CycleSnapshot(cycle=0, top_k=[], profiles_used=0, profiles_total=0)
        assert empty.coverage == 1.0

    def test_current_items_exact_flag(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[])
        session.add_local_result({10: 1.0, 20: 2.0}, contributors=[0])
        session.close_cycle(0)
        assert session.current_items(exact=True) == [20]


class TestChurnRetryDedup:
    """Pins the contributor-granularity dedup in ``close_cycle``.

    Pre-fix, a retried partial result was merged wholesale whenever *any*
    contributor was new, double-counting the scores of the already-counted
    overlap (the skip guard only fired for entirely-stale contributor sets).
    """

    def test_overlap_tainted_retry_is_not_double_counted(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 4.0}, [1]))
        session.close_cycle(1)
        assert session._merger.current_top_k()[0] == (10, pytest.approx(5.0))
        # Churn retry: node 9 took over 2's share and re-aggregated 1's
        # profile into the same list.  Contributor 1 is already counted, so
        # merging would add its 4.0 for item 10 a second time.
        session.receive_partial(_partial(9, {10: 4.0, 30: 2.0}, [1, 2]))
        snapshot = session.close_cycle(2)
        assert snapshot.top_k[0] == (10, pytest.approx(5.0))

    def test_tainted_retry_does_not_mark_new_contributors_used(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 4.0}, [1]))
        session.close_cycle(1)
        session.receive_partial(_partial(9, {10: 4.0, 30: 2.0}, [1, 2]))
        session.close_cycle(2)
        # The dropped list's contribution never reached the merger, so 2
        # must stay outstanding (same accounting as a lost message) and the
        # session must not claim completeness it cannot back with scores.
        assert 2 not in session.profiles_used
        assert not session.is_complete()
        # A clean retry for 2 alone still completes the session exactly.
        session.receive_partial(_partial(2, {30: 2.0}, [2]))
        session.close_cycle(3)
        assert session.is_complete()
        assert session._merger.current_top_k()[0] == (10, pytest.approx(5.0))

    def test_empty_score_overlap_still_counts_new_contributors(self):
        # An empty score list is exact regardless of contributor overlap
        # (nothing could be double counted), so its new contributors count.
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 4.0}, [1]))
        session.close_cycle(1)
        session.receive_partial(_partial(9, {}, [1, 2]))
        session.close_cycle(2)
        assert session.is_complete()
        assert session._merger.current_top_k()[0] == (10, pytest.approx(5.0))


class TestIssueCycleLatency:
    def test_latency_measured_from_issue_cycle(self):
        session = QuerySession(
            _query(), k=1, personal_network_ids=[1], issued_cycle=5
        )
        session.add_local_result({10: 1.0}, contributors=[0], cycle=5)
        session.close_cycle(5)
        assert session.latency_cycles is None
        session.receive_partial(_partial(1, {10: 1.0}, [1], cycle=8))
        session.close_cycle(8)
        assert session.closed
        assert session.closed_cycle == 8
        assert session.latency_cycles == 3

    def test_closing_a_closed_session_raises(self):
        session = QuerySession(
            _query(), k=1, personal_network_ids=[1], issued_cycle=2
        )
        session.add_local_result({10: 1.0}, contributors=[0, 1], cycle=2)
        session.close_cycle(2)
        assert session.latency_cycles == 0
        # The closing snapshot is the last: neither runtime closes a closed
        # session, and the frozen merger refuses to be fed again.
        with pytest.raises(RuntimeError, match="frozen"):
            session.close_cycle(3)
        assert [snapshot.cycle for snapshot in session.snapshots] == [2]
        assert session.closed_cycle == 2
        assert session.latency_cycles == 0


class TestCoverageSemantics:
    def test_session_and_snapshot_coverage_agree(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2, 3])
        session.add_local_result({10: 1.0}, contributors=[0, 1])
        snapshot = session.close_cycle(0)
        assert session.coverage == pytest.approx(snapshot.coverage)
        assert session.coverage == pytest.approx(0.5)

    def test_churned_away_network_keeps_coverage_below_one(self):
        # The querier's whole personal network departs mid-query: the
        # issue-time expectation stands, so coverage stays below 1 and the
        # session stays open (the serving layer reports it abandoned-at-
        # cutoff instead of silently promoting it to complete).
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2, 3])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        for cycle in range(1, 4):
            snapshot = session.close_cycle(cycle)
        assert snapshot.coverage == pytest.approx(0.25)
        assert session.coverage == pytest.approx(snapshot.coverage)
        assert not session.closed

    def test_contributors_outside_expectation_do_not_inflate_coverage(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        # A replica holder outside the personal network contributes: useful
        # scores, but coverage counts expected profiles only.
        session.receive_partial(_partial(7, {20: 2.0}, [7]))
        snapshot = session.close_cycle(1)
        assert snapshot.coverage == pytest.approx(0.5)
        assert session.coverage == pytest.approx(0.5)


class TestSessionEdgeCases:
    def test_k_larger_than_candidate_item_set(self):
        session = QuerySession(_query(), k=10, personal_network_ids=[1])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {20: 2.0}, [1]))
        snapshot = session.close_cycle(1)
        # Only two candidate items exist: the exact top-k is both of them,
        # ordered by score, with no padding and no crash.
        assert session.is_complete()
        assert snapshot.items == [20, 10]
        assert session.current_items(exact=True) == [20, 10]

    def test_partial_after_closed_does_not_perturb_results(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        session.receive_partial(_partial(1, {10: 1.0}, [1]))
        closed_snapshot = session.close_cycle(1)
        assert session.closed
        # A straggler retry with a *novel* contributor and big scores lands
        # after the querier already read off the exact result.
        session.receive_partial(_partial(8, {99: 100.0}, [8]))
        assert session._pending == []
        assert session._merger.current_top_k() == closed_snapshot.top_k
        assert session.snapshots[-1] is closed_snapshot
        assert session.closed_cycle == 1

    def test_duplicate_delivery_under_lossy_retry(self):
        session = QuerySession(_query(), k=1, personal_network_ids=[1, 2])
        session.add_local_result({10: 1.0}, contributors=[0])
        session.close_cycle(0)
        # The lossy transport's retry path can deliver the same partial
        # result twice -- both inside one cycle and again a cycle later.
        duplicate = _partial(1, {10: 4.0}, [1])
        session.receive_partial(duplicate)
        session.receive_partial(duplicate)
        session.close_cycle(1)
        session.receive_partial(_partial(1, {10: 4.0}, [1], cycle=2))
        snapshot = session.close_cycle(2)
        assert snapshot.top_k[0] == (10, pytest.approx(5.0))


class TestForwardedState:
    def test_active_reflects_remaining(self):
        state = ForwardedQueryState(query=_query(), remaining=[1, 2])
        assert state.active
        state.remaining = []
        assert not state.active
