"""The memory model, as object counts rather than megabytes.

``docs/ARCHITECTURE.md`` ("Memory model") states who owns every cache and
queue of a live deployment and of the cycle engine, and what bounds it.
RSS is too noisy to assert on a shared box; these tests pin the *structure*
that keeps it flat instead:

* however many nodes decode a digest, the process holds one object for it
  (the content-keyed intern table of :mod:`repro.gossip.digest`);
* a finished query costs nothing per eager tick: no further snapshot, no
  buffered late partial -- in service mode and in the cycle engine;
* every per-pair value of the lazy exchange is one small shared object: a
  step-2 reply is the subject's cached ascending id tuple, the pair memo is
  one row per receiver, equal common-item sets are one frozenset, view
  entries carry no ``__dict__``;
* a profile at rest holds one immutable copy of its state: a frozenset of
  action ids and two dicts of tuples, no ``set`` and no tuple-action set;
* a digest at rest is its packed integer and its wire row, and the row is
  what it is probed in: the cache derives nothing else from it, whichever
  of a user's versions is probed;
* the offline ideal index is columns, not objects: an id array and a tuple
  of shared score floats per user, under 20 traced bytes per neighbour;
* what a service run keeps per wire event and per answered query: the audit
  trail is five columns (no ``WireEvent`` at rest), the traffic rows are
  folded before they reach a constant (``stats.FOLD_ROWS``, the same in
  both runtimes), and a finished merger is its answer.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import tracemalloc
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.data.interning import GLOBAL_INTERNER, intern_action
from repro.data.models import UserProfile
from repro.data.queries import QueryWorkloadGenerator
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.experiments.runner import converged_simulation
from repro.gossip.digest import DigestCache, ProfileDigest, intern_digest, make_digest
from repro.gossip.views import NeighbourEntry
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.p3q.query import PartialResult
from repro.service import ServiceConfig, ServiceRuntime
from repro.service.codec import BinaryWireCodec
from repro.service.demo import build_demo_workload
from repro.similarity.knn import IdealNetworkIndex
from repro.simulator import stats as stats_module
from repro.topk.heap import Candidate
from repro.topk.nra import RankedList
from repro.simulator.transport import (
    VIEW_RANDOM,
    DigestAdvertisement,
    Envelope,
    QueryResult,
    RemainingReturn,
    WireEvent,
)
from test_stats_flush import collector_views, keep_every_row, reference_views

FAST = ServiceConfig(gossip_interval=0.02, eager_interval=0.005, query_deadline=8.0)


def _late_partial(session) -> PartialResult:
    """A straggler: a contributor the closed session already counted."""
    return PartialResult(
        query_id=session.query.query_id,
        sender=next(iter(session.expected_profiles)),
        scores={999_999: 5.0},
        contributors=tuple(session.expected_profiles),
        cycle=session.closed_cycle,
    )


def _digest_holders(simulation, services):
    """Every digest reachable from a view or a codec's reference LRU."""
    held = []
    for node in simulation.nodes.values():
        held.extend(entry.digest for entry in node.personal_network.ranked_entries())
        held.extend(node.random_view.digests())
    for service in services:
        held.extend(service.codec._received.values())
    assert all(isinstance(digest, ProfileDigest) for digest in held)
    return held


class TestOneObjectPerDigest:
    def test_decoded_digests_are_shared_across_nodes(self):
        workload = build_demo_workload(num_users=20, num_queries=2, seed=9)
        simulation = converged_simulation(workload, 3)

        async def go():
            runtime = ServiceRuntime(simulation, FAST)
            await runtime.start()
            try:
                await runtime.run_queries(workload.queries)
                await asyncio.sleep(0.3)
                # Read before stop(): it tears the services down.
                return _digest_holders(simulation, runtime.services.values())
            finally:
                await runtime.stop()

        held = asyncio.run(go())
        pairs = {(digest.user_id, digest.version) for digest in held}
        # The senders' own digests (the simulation-shared DigestCache) are
        # the originals; everything else arrived as bytes and was decoded.
        originals = {id(digest) for digest in simulation.digest_cache._digests.values()}
        decoded = {id(digest) for digest in held} - originals
        assert decoded, "the run must have decoded advertisements"
        # Twenty nodes each decoded (and kept a reference to) the same
        # digests: without interning this is ~N objects per pair.
        assert len(held) > 2 * len(pairs)
        assert len(decoded) <= len(pairs)


class TestFinishedSessionsRetire:
    def test_closed_session_stops_costing_in_service_mode(self):
        workload = build_demo_workload(num_users=20, num_queries=3, seed=5)
        simulation = converged_simulation(workload, 3)

        async def go():
            runtime = ServiceRuntime(simulation, FAST)
            await runtime.start()
            try:
                sessions = await runtime.run_queries(workload.queries)
                session = next(s for s in sessions.values() if s.closed)
                querier = session.query.querier
                service = runtime.services[querier]
                snapshots = len(session.snapshots)
                result = session._merger.current_top_k()
                # A straggler over the real wire, from another node.
                other = next(uid for uid in runtime.services if uid != querier)
                runtime.services[other].send(
                    other, querier, QueryResult(partial=_late_partial(session)),
                    query_id=session.query.query_id,
                )
                start = service.tick
                while service.tick < start + 50:
                    await asyncio.sleep(0.01)
                node = simulation.nodes[querier]
                return session, snapshots, result, node
            finally:
                await runtime.stop()

        session, snapshots, result, node = asyncio.run(go())
        assert len(session.snapshots) == snapshots  # also across stop()'s fold
        assert session._pending == []
        assert session._merger.current_top_k() == result
        assert session.query.query_id in node.sessions
        assert session.query.query_id not in node._live_sessions

    def test_late_partial_is_dropped_at_receipt_in_the_cycle_engine(
        self, warm_simulation, query_workload
    ):
        sessions = warm_simulation.issue_queries(query_workload[:3])
        warm_simulation.run_eager(cycles=30)
        session = next(s for s in sessions.values() if s.closed)
        result = session._merger.current_top_k()
        node = warm_simulation.nodes[session.query.querier]
        node.handle_message(
            Envelope(0, node.node_id, QueryResult(partial=_late_partial(session)),
                     session.query.query_id, False)
        )
        assert session._pending == []
        snapshots = list(session.snapshots)
        warm_simulation.run_eager(cycles=2, stop_when_idle=False)
        # The engine closes open sessions only, as the service does.
        assert session.snapshots == snapshots
        assert session.snapshots[-1].cycle == session.closed_cycle
        assert session._merger.current_top_k() == result

    def test_retired_session_revives_in_issue_order(self, warm_simulation, query_workload):
        """A late remaining-list share puts a retired session back into the
        round scans at its original position (the scans draw from the rng)."""
        node = warm_simulation.nodes[query_workload[0].querier]
        for query_id in (1000, 1001, 1002):
            session = node.issue_query(replace(query_workload[0], query_id=query_id))
            session.remaining = []
            session.closed = True
        assert node.close_open_sessions(1) == {}
        assert not node._live_sessions
        for query_id in (1002, 1000):
            node.handle_message(
                Envelope(1, node.node_id, RemainingReturn(query_id=query_id, remaining=(7,)),
                         query_id, False)
            )
        assert list(node._live_sessions) == [1000, 1002]
        assert node.has_active_queries()


def _subject() -> UserProfile:
    """Items 0..7; item ``i`` carries ``i % 3 + 1`` tags, interned out of
    ascending order so a sorted reply is not an accident of insertion."""
    return UserProfile(
        5, [(item, 50 - tag) for item in range(8) for tag in range(item % 3 + 1)]
    )


class TestOneSmallObjectPerPairValue:
    """The cycle engine's per-(receiver, subject) state."""

    def test_single_item_request_returns_the_cached_per_item_tuple_itself(self):
        subject = _subject()
        reply = subject.action_ids_for_items(frozenset({4}))
        assert type(reply) is tuple and len(reply) == 2
        assert reply is subject._cache["pairs_ids"][4]
        assert subject.action_ids_for_items([4, 4]) is reply
        assert subject.copy().action_ids_for_items({4}) is reply  # replicas share
        assert "afi_ids" not in subject._cache  # no memo entry either
        assert subject.action_ids_for_items(frozenset({99})) == ()

    def test_equal_multi_item_requests_share_one_reply_object(self):
        subject = _subject()
        replica = subject.copy()
        first = subject.action_ids_for_items(frozenset({1, 2, 7}))
        second = replica.action_ids_for_items(frozenset({7, 2, 1}))
        assert type(first) is tuple
        assert second is first
        assert len(subject._cache["afi_ids"]) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        actions=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 6)), max_size=40
        ),
        items=st.lists(st.integers(0, 16), max_size=12),
        as_frozenset=st.booleans(),
    )
    def test_a_reply_is_ascending_without_repeats_and_names_the_same_actions(
        self, actions, items, as_frozenset
    ):
        """``items`` reaches past the subject's items (Bloom false
        positives) and, as a list, repeats itself."""
        subject = UserProfile(1, actions)
        request = frozenset(items) if as_frozenset else items
        reply = subject.action_ids_for_items(request)
        assert type(reply) is tuple
        assert all(a < b for a, b in zip(reply, reply[1:]))
        expected = {intern_action(i, t) for i, t in subject.actions_for_items(items)}
        assert set(reply) == expected
        assert len(reply) == len(expected)  # what the cost model charges
        assert subject.action_ids_for_items(request) == reply

    def test_view_entries_carry_no_instance_dict(self):
        instance = NeighbourEntry(user_id=1, score=2.0, digest=make_digest(_subject()))
        assert not hasattr(instance, "__dict__")
        assert "__slots__" in type(instance).__dict__

    def test_pair_memo_is_one_row_per_receiver(self, synthetic_dataset, small_config):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        simulation.run_lazy(3)
        cache = simulation.digest_cache
        memo = cache._common
        assert memo and set(memo) <= set(simulation.nodes)  # int keys, <= N rows
        pairs = 0
        for receiver_id, (version, row) in memo.items():
            assert version == simulation.nodes[receiver_id].profile.version
            assert all(type(subject_id) is int for subject_id in row)
            assert all(type(common) is frozenset for _version, common in row.values())
            pairs += len(row)
        assert pairs > len(memo)
        assert cache._common_pairs == pairs

    def test_equal_common_item_sets_are_one_object(self):
        """Two receivers pricing the same subject to the same value hold the
        *same* frozenset; the value table is reported and never outgrows the
        pair memo."""
        cache = DigestCache()
        subject = UserProfile(1, [(item, 9) for item in (1, 2, 3)])
        digest = cache.digest_for(subject)
        first = cache.common_items(UserProfile(2, [(i, 7) for i in (1, 2, 3, 40)]), digest)
        second = cache.common_items(UserProfile(3, [(i, 8) for i in (1, 2, 3, 50)]), digest)
        assert first == {1, 2, 3}
        assert second is first
        assert cache.common_items(UserProfile(4, [(60, 1)]), digest) == frozenset()
        assert cache._common_pairs == 3
        assert len(cache._common_values) == 1  # the empty set is not tabled
        cache.evict_profiles([2, 3, 4])
        assert len(cache._common_values) == cache._common_pairs == 0

    def test_value_table_empties_with_the_memo(self):
        cache = DigestCache()
        cache.MAX_COMMON_PAIRS = 2
        digest = cache.digest_for(UserProfile(1, [(1, 9), (2, 9)]))
        for receiver_id, item in ((2, 1), (3, 2)):
            cache.common_items(UserProfile(receiver_id, [(item, 7)]), digest)
        assert len(cache._common_values) == cache._common_pairs == 2
        # Overflow: the memo and the table are dropped together before the
        # third pair is stored.
        cache.common_items(UserProfile(4, [(1, 7), (2, 7)]), digest)
        assert len(cache._common_values) == cache._common_pairs == 1

    def test_value_table_stays_under_the_memo_through_a_run(
        self, synthetic_dataset, small_config
    ):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        simulation.run_lazy(3)
        cache = simulation.digest_cache
        assert 0 < len(cache._common_values) <= cache._common_pairs
        held = [
            common
            for _version, row in cache._common.values()
            for _digest_version, common in row.values()
            if common
        ]
        # One object per distinct value: that is the whole table.
        assert len({id(common) for common in held}) == len(set(held)) == len(cache._common_values)
        assert len(held) > len(cache._common_values)


#: ``sys.getsizeof`` over the at-rest containers of :func:`_sixty_actions`
#: at the parent commit (tuple set + id set + a ``set`` per item and per
#: tag): 17 144 B.  The one-copy form measures 7 024 B.
PARENT_STATE_BYTES = 17_144


def _sixty_actions():
    """30 items with 2 tags each, drawn from 20 tags."""
    return [(item, (item * 7 + k) % 20) for item in range(30) for k in range(2)]


def _state_containers(profile: UserProfile):
    """Every container a profile holds outside its derived-view cache."""
    slots = [s for s in UserProfile.__slots__ if s not in ("user_id", "_version", "_cache", "_shared")]
    for slot in slots:
        container = getattr(profile, slot)
        yield container
        if isinstance(container, dict):
            yield from container.values()


class TestOneCopyOfAProfileAtRest:
    def test_a_bulk_built_profile_holds_no_set(self):
        profile = UserProfile.from_distinct_actions(1, _sixty_actions())
        assert len(profile) == 60
        assert "_actions" not in UserProfile.__slots__
        containers = list(_state_containers(profile))
        assert {type(c) for c in containers} == {frozenset, dict, tuple}
        assert sum(type(c) is frozenset for c in containers) == 1  # the action ids

    def test_action_ids_is_the_stored_container(self):
        profile = UserProfile.from_distinct_actions(1, _sixty_actions())
        assert profile.action_ids is profile.action_ids
        assert profile.action_ids is profile._action_ids
        assert profile.copy().action_ids is profile.action_ids

    def test_at_rest_state_is_at_most_half_the_parents(self):
        profile = UserProfile.from_distinct_actions(1, _sixty_actions())
        state = sum(sys.getsizeof(c) for c in _state_containers(profile))
        assert state <= PARENT_STATE_BYTES // 2, state

    def test_gossip_and_scoring_reads_cache_no_copy_of_the_state(self, small_config):
        # A corpus of its own: replicas share ``_cache`` with the dataset's
        # profiles, and another test may have asked the shared fixture's
        # profiles for ``actions``.
        dataset = generate_dataset(SyntheticConfig(num_users=40, num_items=300, seed=11))
        simulation = P3QSimulation(dataset, small_config)
        simulation.warm_start()
        simulation.bootstrap_random_views()
        simulation.run_lazy(2)
        simulation.issue_queries(QueryWorkloadGenerator(dataset, seed=5).generate(range(5)))
        simulation.run_eager(cycles=10)
        profiles = []
        for node in simulation.nodes.values():
            profiles.append(node.profile)
            profiles.extend(node.personal_network.stored_profiles().values())
        assert len(profiles) > len(simulation.nodes)
        keys = set().union(*(profile._cache for profile in profiles))
        assert "items" in keys  # the read paths did run
        assert keys <= {"version", "items", "pairs_ids", "afi_ids"}

    def test_a_membership_probe_never_allocates_an_id(self):
        profile = UserProfile(1, [(1, 2)])
        before = len(GLOBAL_INTERNER._actions)
        assert (987_654_321, 123_456_789) not in profile
        assert (1, 987_654_321) not in profile
        assert (1, 2) in profile
        assert len(GLOBAL_INTERNER._actions) == before


class TestTheIdealIndexIsColumns:
    def test_an_ideal_neighbour_costs_at_most_20_traced_bytes(self):
        """At N=300 and the default ``s``: 58.7 B while every neighbour was
        a ``Neighbour`` object, 15.8 B as an ``array("i")`` slot plus a
        tuple slot pointing at a shared float."""
        dataset = generate_dataset(SyntheticConfig(num_users=300, seed=3))
        for profile in dataset.profiles():
            profile.action_ids  # not the index's bytes
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = IdealNetworkIndex(dataset, size=P3QConfig().network_size)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        neighbours = sum(len(index.neighbour_ids(uid)) for uid in dataset.user_ids)
        assert neighbours > 10 * len(dataset)
        assert held / neighbours <= 20, held / neighbours


#: ``sys.getsizeof`` of what the parent commit held for the digest of
#: :func:`_sixty_actions` (30 items, 416 set bits): the packed integer
#: (2 688 B), the wire row (2 533 B) and a ``set`` of the set-bit indices
#: (32 984 B; 15.9 KiB on average over the N=600 benchmark corpus).
PARENT_DIGEST_BYTES = 2_688 + 2_533 + 32_984


def _reachable(root):
    """Every object reachable from ``root`` through containers and instance
    attributes (slots included), ``root`` included; classes are not entered."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestOneDigestFormAtRest:
    def test_no_set_hangs_off_a_cached_digest_or_probe_row(
        self, synthetic_dataset, small_config
    ):
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        cache = simulation.digest_cache
        for node in simulation.nodes.values():
            cache.digest_for(node.profile)
        simulation.bootstrap_random_views()
        simulation.run_lazy(1)
        assert len(cache._digests) == len(simulation.nodes) and len(cache._rows) > 0
        held = _reachable(cache._digests) + _reachable(cache._rows)
        assert any(type(obj) is bytes for obj in held)  # probed rows are memoised
        assert not [obj for obj in held if type(obj) is set]

    def test_a_digest_at_rest_is_its_integer_and_its_row(self):
        cache = DigestCache()
        subject = UserProfile.from_distinct_actions(1, _sixty_actions())
        digest = cache.digest_for(subject)
        assert cache.common_items(UserProfile(2, [(3, 1), (500, 1)]), digest) == {3}
        # Everything the filter owns (``_masks`` is the geometry's shared
        # probe-mask table): a few small ints, the packed integer, the row.
        owned = [getattr(digest.bloom, slot) for slot in BloomFilter.__slots__ if slot != "_masks"]
        assert {type(value) for value in owned} == {int, bytes}
        big = [value for value in owned if sys.getsizeof(value) > 64]
        assert [sys.getsizeof(value) for value in big] == [2_688, 2_533]
        at_rest = sum(sys.getsizeof(value) for value in owned)
        assert at_rest <= PARENT_DIGEST_BYTES // 7, at_rest

    def test_the_probed_row_is_the_row_the_codec_sends(self, monkeypatch):
        cache = DigestCache()
        digest = cache.digest_for(UserProfile(1, [(item, 9) for item in range(12)]))
        row = digest.bloom.row_bytes()
        assert digest.bloom.row_bytes() is row
        assert cache.common_items(UserProfile(2, [(3, 1), (4, 1)]), digest) == {3, 4}
        assert digest.bloom.row_bytes() is row
        appended = []
        row_bytes = BloomFilter.row_bytes
        monkeypatch.setattr(
            BloomFilter, "row_bytes", lambda bloom: appended.append(row_bytes(bloom)) or appended[-1]
        )
        frame = BinaryWireCodec().encode_message(
            DigestAdvertisement(digests=(digest,), view=VIEW_RANDOM)
        )
        assert len(appended) == 1 and appended[0] is row and row in frame

    def test_alternating_versions_of_one_user_rederive_nothing(self):
        """Both versions of a changed user's digest circulate for a while;
        each carries its own row, so probing them in turn misses the pair
        memo every time and still builds nothing."""
        cache = DigestCache()
        subject = UserProfile(1, [(item, 9) for item in range(12)])
        old = cache.digest_for(subject)
        subject.add_all([(40, 9)])
        new = cache.digest_for(subject)
        # The old version as a peer that decoded it from the wire holds it.
        old = intern_digest(1, old.version, 20_000, 14, 12, bytes(old.bloom.row_bytes()))
        rows = (old.bloom.row_bytes(), new.bloom.row_bytes())
        receiver = UserProfile(2, [(3, 1), (40, 1), (77, 1)])
        misses = []
        cache.record_pricing(misses)
        for _ in range(50):
            assert cache.common_items(receiver, old) == {3}
            assert cache.common_items(receiver, new) == {3, 40}
        assert len(misses) == 100
        assert old.bloom.row_bytes() is rows[0] and new.bloom.row_bytes() is rows[1]
        assert len(cache._digests) == len(cache._rows) == 1


# ------------------------------------------- per wire event, per answered query


def _service_run(simulation, workload, keep_up: float = 0.5):
    """A short in-process deployment: answers the workload's queries, then
    keeps gossiping for ``keep_up`` seconds."""

    async def go():
        runtime = ServiceRuntime(simulation, FAST)
        await runtime.start()
        try:
            await runtime.run_queries(workload.queries)
            await asyncio.sleep(keep_up)
        finally:
            await runtime.stop()
        return runtime

    return asyncio.run(go())


class TestWhatAServiceRunKeeps:
    def test_the_audit_trail_is_columns_not_wire_events(self):
        workload = build_demo_workload(num_users=20, num_queries=3, seed=5)
        runtime = _service_run(converged_simulation(workload, 3), workload)
        trace = runtime.trace
        events = len(trace.events)
        assert events > 500
        held = _reachable(trace)
        assert not [obj for obj in held if isinstance(obj, WireEvent)]
        columns = (
            trace._flags, trace._senders, trace._receivers, trace._query_ids,
            trace._messages,
        )
        assert all(len(column) == events for column in columns)
        # The parent held a 104-byte tuple and an 8-byte list slot per event.
        assert sum(sys.getsizeof(column) for column in columns) <= 32 * events
        # Reading the view leaves nothing behind either.
        assert len(list(trace.events)) == events
        assert not [obj for obj in _reachable(trace) if isinstance(obj, WireEvent)]

    def test_traffic_rows_fold_before_they_pass_the_constant(self, monkeypatch):
        # A short run records a few thousand rows: shrink the constant so
        # it folds many times.
        monkeypatch.setattr(stats_module, "FOLD_ROWS", 64)
        workload = build_demo_workload(num_users=20, num_queries=3, seed=5)
        simulation = converged_simulation(workload, 3)
        stats = simulation.stats
        rows = keep_every_row(stats)
        buffered = []
        record = stats.record

        def record_and_measure(*row):
            record(*row)
            buffered.append(len(stats._rows))

        stats.record = record_and_measure
        _service_run(simulation, workload)
        assert len(buffered) == len(rows) > 10 * 64
        assert max(buffered) < 64
        reference = reference_views(rows)
        assert reference["query_ids"] != []
        assert collector_views(stats) == reference

    def test_a_finished_merger_is_its_answer(self, warm_simulation, query_workload):
        sessions = warm_simulation.issue_queries(query_workload[:5])
        warm_simulation.run_eager(cycles=30)
        closed = [session for session in sessions.values() if session.closed]
        assert closed
        for session in closed:
            merge_state = [
                obj for obj in _reachable(session._merger)
                if isinstance(obj, (Candidate, RankedList))
            ]
            assert merge_state == []
            closing = next(
                snapshot for snapshot in session.snapshots
                if snapshot.cycle == session.closed_cycle
            )
            assert closing.top_k and len(closing.top_k) <= session.k
            assert session._merger.current_top_k() == closing.top_k
            assert session.current_items() == closing.items
            assert session.current_items(exact=True) == closing.items
            # Its access count outlives the state it counted.
            assert session._merger.sequential_accesses >= len(closing.top_k)
