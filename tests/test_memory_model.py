"""The memory model, as object counts rather than megabytes.

``docs/ARCHITECTURE.md`` ("Memory model") states who owns every cache and
queue of a live deployment and of the cycle engine, and what bounds it.
RSS is too noisy to assert on a shared box; these tests pin the *structure*
that keeps it flat instead:

* however many nodes decode a digest, the process holds one object for it
  (the content-keyed intern table of :mod:`repro.gossip.digest`);
* a finished query costs nothing per eager tick: no further snapshot, no
  buffered late partial -- in service mode and in the cycle engine;
* every per-pair value of the lazy exchange is one small object: a
  one-item step-2 reply is the subject's cached ascending id tuple, the
  pair memo is one row per receiver and holds no random-view probe, equal
  memoized common-item sets are one frozenset, view entries carry no
  ``__dict__``;
* a profile at rest holds one immutable copy of its state: a frozenset of
  action ids and two dicts of tuples, no ``set`` and no tuple-action set;
* a digest at rest is its wire row and nothing else of its size, and the
  row is what it is probed in: the cache derives nothing else from it,
  whichever of a user's versions is probed, and holds no 20 Kbit integer;
* the offline ideal index is columns, not objects: an id array and a tuple
  of shared score floats per user, under 20 traced bytes per neighbour;
* what a service run keeps per wire event and per answered query: the audit
  trail is five columns (no ``WireEvent`` at rest) whose message column
  holds one object per distinct lazy-exchange message, the traffic rows are
  folded before they reach a constant (``stats.FOLD_ROWS``, the same in
  both runtimes), and a finished merger is its answer.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.bloom import bloom as bloom_module
from repro.data.interning import GLOBAL_INTERNER, intern_action
from repro.data.models import UserProfile
from repro.data.queries import QueryWorkloadGenerator
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.experiments.runner import converged_simulation
from repro.gossip.digest import DigestCache, ProfileDigest, intern_digest, make_digest
from repro.gossip.profile_exchange import LazyExchangeProtocol
from repro.gossip.views import NeighbourEntry
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.p3q.query import PartialResult
from repro.service import ServiceConfig, ServiceRuntime, check_trace
from repro.service import codec as codec_module
from repro.service.codec import BinaryWireCodec
from repro.service.demo import build_demo_workload
from repro.service.trace import TRACE_CHECKERS
from repro.similarity.knn import IdealNetworkIndex
from repro.simulator import stats as stats_module
from repro.topk.heap import Candidate
from repro.topk.nra import RankedList
from repro.simulator.transport import (
    DigestPullReply,
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


class TestOneObjectPerDigest:
    def test_decoded_digests_are_shared_across_nodes(self, monkeypatch):
        """Every row a node decodes (a pull reply's) resolves to the one
        interned object of its content, whichever node decodes it."""
        workload = build_demo_workload(num_users=20, num_queries=2, seed=9)
        simulation = converged_simulation(workload, 3)
        decoded = []
        intern = codec_module.intern_digest

        def recording(*row):
            decoded.append(intern(*row))
            return decoded[-1]

        monkeypatch.setattr(codec_module, "intern_digest", recording)

        async def go():
            runtime = ServiceRuntime(simulation, FAST)
            await runtime.start()
            try:
                await runtime.run_queries(workload.queries)
                await asyncio.sleep(0.3)
            finally:
                await runtime.stop()

        asyncio.run(go())
        assert decoded, "the run must have decoded pulled rows"
        assert all(isinstance(digest, ProfileDigest) for digest in decoded)
        pairs = {(digest.user_id, digest.version) for digest in decoded}
        # Twenty nodes each decoded the same digests: without interning
        # this is one object per decode.
        assert len(decoded) > 2 * len(pairs)
        assert len({id(digest) for digest in decoded}) <= len(pairs)


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

    def test_evaluated_holds_one_entry_per_pair_seen_and_never_sheds(
        self, synthetic_dataset, small_config, monkeypatch
    ):
        """``LazyExchangeProtocol._evaluated`` keeps one entry for every
        (receiver, random-view member) pair a refresh has seen, at the
        newest version a descriptor of the view named, and drops none of
        them."""
        seen = {}
        refresh = LazyExchangeProtocol.refresh_from_random_view_effects

        def spy_refresh(protocol, peer):
            row = seen.setdefault(peer.node_id, {})
            for user_id, version in peer.random_view.descriptors():
                row[user_id] = max(row.get(user_id, -1), version)
            return refresh(protocol, peer)

        monkeypatch.setattr(LazyExchangeProtocol, "refresh_from_random_view_effects", spy_refresh)
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        evaluated = simulation.lazy._evaluated
        sizes = []
        for _ in range(4):
            simulation.run_lazy(1)
            assert evaluated == seen
            sizes.append(sum(len(row) for row in evaluated.values()))
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    def test_single_item_request_returns_the_cached_per_item_tuple_itself(self):
        subject = _subject()
        reply = subject.action_ids_for_items(frozenset({4}))
        assert type(reply) is tuple and len(reply) == 2
        assert reply is subject._cache["pairs_ids"][4]
        assert subject.action_ids_for_items([4, 4]) is reply
        assert subject.copy().action_ids_for_items({4}) is reply  # replicas share
        assert set(subject._cache) == {"version", "pairs_ids"}  # no reply entry
        assert subject.action_ids_for_items(frozenset({99})) == ()

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

    def test_random_view_entries_are_ints(self, synthetic_dataset, small_config):
        """A random view is ``user_id -> version``: no digest row, no
        descriptor tuple at rest, before and after lazy cycles."""
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        for cycles in (0, 3):
            simulation.run_lazy(cycles)
            members = 0
            for node in simulation.nodes.values():
                entries = node.random_view._entries
                assert all(type(key) is int and type(value) is int for key, value in entries.items())
                members += len(entries)
            assert members == len(simulation.nodes) * small_config.random_view_size

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

    def test_random_view_candidates_take_no_pair_memo_entry(
        self, synthetic_dataset, small_config, monkeypatch
    ):
        """A random-view member is priced once per digest version and never
        asked again: her pair is neither memoized nor a recorded miss, and
        is priced at most once.  Only pairs the exchange path prices (it
        re-screens known neighbours) enter the memo."""
        advertised, in_random_view = set(), set()
        priced = Counter()
        integrate = LazyExchangeProtocol.integrate_effects
        refresh = LazyExchangeProtocol.refresh_from_random_view_effects

        def spy_integrate(protocol, receiver, provider_id, descriptors, query_id=None):
            descriptors = tuple(descriptors)
            advertised.update((receiver.node_id, user_id) for user_id, _ in descriptors)
            return integrate(protocol, receiver, provider_id, descriptors, query_id)

        def spy_refresh(protocol, peer):
            in_random_view.update((peer.node_id, user_id) for user_id in peer.random_view.member_ids())
            return refresh(protocol, peer)

        def pricing_spy(method):
            def spy(cache, receiver, digest):
                priced[receiver.user_id, digest.user_id] += 1
                return method(cache, receiver, digest)
            return spy

        monkeypatch.setattr(LazyExchangeProtocol, "integrate_effects", spy_integrate)
        monkeypatch.setattr(LazyExchangeProtocol, "refresh_from_random_view_effects", spy_refresh)
        for name in ("common_items", "probe"):
            monkeypatch.setattr(DigestCache, name, pricing_spy(getattr(DigestCache, name)))
        simulation = P3QSimulation(synthetic_dataset.copy(), small_config)
        simulation.bootstrap_random_views()
        misses = []
        simulation.digest_cache.record_pricing(misses)
        simulation.run_lazy(1)

        only_random = in_random_view - advertised
        memoized = {
            (receiver_id, subject_id)
            for receiver_id, (_version, row) in simulation.digest_cache._common.items()
            for subject_id in row
        }
        assert only_random and memoized
        assert not only_random & memoized
        assert not only_random & {(receiver, subject) for receiver, _, subject, _, _ in misses}
        assert max(priced[pair] for pair in only_random) == 1

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
        profile = UserProfile(1, _sixty_actions())
        assert len(profile) == 60
        assert "_actions" not in UserProfile.__slots__
        containers = list(_state_containers(profile))
        assert {type(c) for c in containers} == {frozenset, dict, tuple}
        assert sum(type(c) is frozenset for c in containers) == 1  # the action ids

    def test_action_ids_is_the_stored_container(self):
        profile = UserProfile(1, _sixty_actions())
        assert profile.action_ids is profile.action_ids
        assert profile.action_ids is profile._action_ids
        assert profile.copy().action_ids is profile.action_ids

    def test_at_rest_state_is_at_most_half_the_parents(self):
        profile = UserProfile(1, _sixty_actions())
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
        assert keys <= {"version", "items", "pairs_ids"}

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
        positions = bloom_module._POSITIONS[(cache.num_bits, cache.num_hashes)]
        assert positions
        held = _reachable(cache._digests) + _reachable(cache._rows)
        assert any(type(obj) is bytes for obj in held)  # probed rows are memoised
        assert not [obj for obj in held if type(obj) is set]
        # The rows are the only digest-sized objects: no packed integer, no
        # probe mask, no per-receiver bit set.
        held += _reachable(positions)
        assert not [obj for obj in held if type(obj) is int and sys.getsizeof(obj) > 64]

    def test_a_digest_at_rest_is_its_row(self):
        cache = DigestCache()
        subject = UserProfile(1, _sixty_actions())
        digest = cache.digest_for(subject)
        assert cache.common_items(UserProfile(2, [(3, 1), (500, 1)]), digest) == {3}
        # Everything the filter owns (``_positions`` is the geometry's shared
        # probe-position table): a few small ints and the row.
        owned = [
            getattr(digest.bloom, slot) for slot in BloomFilter.__slots__ if slot != "_positions"
        ]
        assert {type(value) for value in owned} == {int, bytes}
        big = [value for value in owned if sys.getsizeof(value) > 64]
        assert big == [digest.bloom.row_bytes()]
        assert sys.getsizeof(big[0]) == 2_533
        # The row and three small ints, where the digest's packed integer and
        # row together held 2 688 + 2 533 B.
        at_rest = sum(sys.getsizeof(value) for value in owned)
        assert at_rest <= 2_533 + 3 * 32, at_rest

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
        frame = BinaryWireCodec().encode_message(DigestPullReply(digests=(digest,)))
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

    @pytest.fixture(scope="class")
    def demo_run(self):
        workload = build_demo_workload(num_users=20, num_queries=3, seed=5)
        simulation = converged_simulation(workload, 3)
        return simulation, _service_run(simulation, workload)

    def test_the_trace_holds_one_object_per_distinct_message(self, demo_run):
        _, runtime = demo_run
        messages = runtime.trace._messages
        assert len(messages) > 500
        # One object per event before equal lazy-exchange messages were
        # merged; 0.28-0.29 of the events over three runs after.
        assert len({id(message) for message in messages}) <= 0.5 * len(messages)

    def test_a_closed_query_leaves_little_behind(self, demo_run):
        """Bytes a closed query keeps in the nodes: its session (snapshots,
        id sets, the frozen answer), and at every node it reached the
        profiles contributed and the spent forwarded state."""
        simulation, _ = demo_run
        nodes = list(simulation.nodes.values())
        sessions = [
            session
            for node in nodes
            for session in node.sessions.values()
            if session.closed
        ]
        assert sessions
        # The issued query is the caller's object, not something serving kept.
        issued = {id(session.query) for session in sessions}
        kept = 0
        for session in sessions:
            query_id = session.query.query_id
            roots = [session] + [
                holder[query_id]
                for node in nodes
                for holder in (node._contributed, node.forwarded)
                if query_id in holder
            ]
            kept += sum(
                sys.getsizeof(obj)
                for obj in _reachable(roots)
                if id(obj) not in issued and obj is not roots
            )
        # 3 237 B a closed query, the same in each of three runs; 4 861 B
        # before snapshots shared their unmoved pairs, a closed session its
        # id sets and a node its contributed ids as a tuple.
        assert kept / len(sessions) <= 4_400

    def test_the_merged_trace_passes_the_audit(self, demo_run):
        simulation, runtime = demo_run
        assert check_trace(runtime.trace.events, simulation) == [
            checker.name for checker in TRACE_CHECKERS
        ]

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
