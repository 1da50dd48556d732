"""End-to-end tests of the asyncio service runtime.

A small in-process deployment must complete queries against the same
centralized references the experiments use, and the recorded wire trace
must pass the simtest invariant checkers -- the acceptance criteria of
service mode.  UDP coverage is a single smoke run over real loopback
sockets.
"""

from __future__ import annotations

import asyncio
import logging
import math
import struct
from types import SimpleNamespace

import pytest

from repro.experiments.runner import converged_simulation
from repro.gossip.sizes import total_bytes
from repro.service import ServiceConfig, ServiceRuntime, ServiceTrace, check_trace
from repro.service.codec import MAX_DATAGRAM_BYTES
from repro.service.demo import (
    build_demo_workload,
    demo_succeeded,
    format_report,
    run_demo_sync,
)
from repro.service.runtime import FrameBatcher, NodeService, TimerWheel, _report_task_failure
from repro.simulator.effects import ProbeEffect, RequestEffect
from repro.simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    LOST,
    OP_DRAIN,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
    UNREACHABLE,
    Dispatch,
    RemainingReturn,
    WireEvent,
)


def _run(workload, config, storage=3):
    """One full service run; returns (runtime, simulation, sessions)."""
    simulation = converged_simulation(workload, storage)

    async def go():
        runtime = ServiceRuntime(simulation, config)
        await runtime.start()
        try:
            sessions = await runtime.run_queries(workload.queries)
        finally:
            await runtime.stop()
        return runtime, sessions

    runtime, sessions = asyncio.run(go())
    return runtime, simulation, sessions


class TestInProcRun:
    @pytest.fixture(scope="class")
    def run(self):
        workload = build_demo_workload(num_users=30, num_queries=4, seed=7)
        config = ServiceConfig(
            gossip_interval=0.05, eager_interval=0.02, query_deadline=8.0
        )
        return _run(workload, config) + (workload,)

    def test_queries_complete(self, run):
        _, _, sessions, _ = run
        assert any(session.closed for session in sessions.values())

    def test_sessions_reach_coverage(self, run):
        _, _, sessions, _ = run
        for session in sessions.values():
            assert 0.0 <= session.coverage <= 1.0
        assert any(session.coverage == 1.0 for session in sessions.values())

    def test_trace_records_round_trips(self, run):
        runtime, _, _, _ = run
        ops = {event.op for event in runtime.trace.events}
        assert OP_REQUEST in ops
        assert OP_REPLY in ops

    def test_trace_passes_invariants(self, run):
        runtime, simulation, _, _ = run
        names = check_trace(runtime.trace.events, simulation)
        assert set(names) == {
            "byte-conservation",
            "view-bounds",
            "replica-freshness",
            "query-lifecycle",
        }

    def test_accounting_matches_trace(self, run):
        """Bytes in the stats collector come only from accounted wire events."""
        runtime, simulation, _, _ = run
        assert simulation.stats.total_bytes() > 0
        accounted = [e for e in runtime.trace.events if e.accounted]
        assert accounted

    def test_trace_dump_load_round_trip(self, run, tmp_path):
        runtime, _, _, _ = run
        path = tmp_path / "trace.jsonl"
        written = runtime.trace.dump(str(path))
        assert written == len(runtime.trace.events)
        loaded = ServiceTrace.load(str(path))
        assert len(loaded) == written
        for original, reloaded in zip(runtime.trace.events, loaded.events):
            assert original.op == reloaded.op
            assert original.sender == reloaded.sender
            assert original.receiver == reloaded.receiver
            assert original.status == reloaded.status
            assert original.accounted == reloaded.accounted
            assert original.query_id == reloaded.query_id
            assert type(original.message) is type(reloaded.message)


class TestEventsView:
    """``trace.events`` reads like the list of ``WireEvent``s it replaced."""

    @pytest.fixture(scope="class")
    def observed(self):
        workload = build_demo_workload(num_users=20, num_queries=3, seed=5)
        simulation = converged_simulation(workload, 3)
        collected = []
        message = RemainingReturn(query_id=0, remaining=(4,))

        async def go():
            runtime = ServiceRuntime(
                simulation, ServiceConfig(gossip_interval=0.02, eager_interval=0.005)
            )
            runtime.add_observer(collected.append)
            await runtime.start()
            try:
                await runtime.run_queries(workload.queries)
                # The protocols probe before they send, so a run rarely
                # meets a departed peer: address one directly.
                here, gone = list(runtime.services)[:2]
                simulation.network.depart([gone])
                service = runtime.services[here]
                assert service.send(here, gone, message, query_id=0) == UNREACHABLE
                dispatch = await service.request(here, gone, message)
                assert dispatch.status == UNREACHABLE
            finally:
                await runtime.stop()
            # What this run did not emit, recorded by hand.
            runtime.observe(OP_REQUEST, 3, -4, message, DROPPED, True, 5)
            runtime.observe(OP_DRAIN, 3, -4, message, LOST, False, 0)
            runtime.observe(OP_DRAIN, 3, -4, message, DEFERRED, True, None)
            return runtime

        return asyncio.run(go()), collected

    def test_view_equals_what_an_observer_collected(self, observed):
        runtime, collected = observed
        events = runtime.trace.events
        assert len(events) == len(runtime.trace) == len(collected) > 100
        assert list(events) == collected
        assert all(type(event) is WireEvent for event in events)
        # Same message objects, not copies.
        assert all(
            mine.message is theirs.message for mine, theirs in zip(events, collected)
        )
        seen = {(event.op, event.status) for event in collected}
        assert {
            (OP_REQUEST, DELIVERED), (OP_REPLY, DELIVERED), (OP_SEND, DELIVERED),
            (OP_REQUEST, UNREACHABLE), (OP_SEND, UNREACHABLE), (OP_REQUEST, DROPPED),
            (OP_DRAIN, LOST), (OP_DRAIN, DEFERRED),
        } <= seen
        assert {True, False} == {event.accounted for event in collected}

    def test_no_query_and_query_zero_stay_apart(self, observed):
        runtime, _ = observed
        zero, none = runtime.trace.events[-2:]
        assert zero.query_id == 0 and zero.query_id is not None
        assert none.query_id is None
        assert any(event.query_id is None for event in runtime.trace.events[:-2])

    def test_indexing_like_a_list(self, observed):
        runtime, collected = observed
        events = runtime.trace.events
        assert events[0] == collected[0] and events[-1] == collected[-1]
        assert events[5:9] == collected[5:9]
        assert events[-3:] == collected[-3:]
        assert events[::50] == collected[::50]
        assert events[len(collected):] == []
        with pytest.raises(IndexError):
            events[len(collected)]
        with pytest.raises(TypeError):
            events[0] = collected[0]
        assert not hasattr(events, "append")

    def test_dump_load_dump_is_byte_identical(self, observed, tmp_path):
        runtime, collected = observed
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert runtime.trace.dump(str(first)) == len(collected)
        loaded = ServiceTrace.load(str(first))
        assert loaded.dump(str(second)) == len(collected)
        assert first.read_bytes() == second.read_bytes()
        for mine, theirs in zip(loaded.events, collected):
            assert mine._replace(message=None) == theirs._replace(message=None)

    def test_an_unknown_op_or_status_is_refused_loudly(self):
        trace = ServiceTrace()
        message = RemainingReturn(query_id=0, remaining=())
        with pytest.raises(KeyError):
            trace.append("teleport", 1, 2, message, DELIVERED, True, None)
        with pytest.raises(KeyError):
            trace.append(OP_SEND, 1, 2, message, "misplaced", True, None)
        with pytest.raises(OverflowError):
            trace.append(OP_SEND, 1, 1 << 40, message, DELIVERED, True, None)
        # A refused event leaves every column as long as the others.
        trace.append(OP_SEND, 1, 2, message, DELIVERED, True, 7)
        assert list(trace.events) == [
            WireEvent(OP_SEND, 1, 2, message, DELIVERED, True, 7)
        ]


class TestUdpRun:
    def test_udp_smoke(self):
        workload = build_demo_workload(num_users=12, num_queries=2, seed=11)
        config = ServiceConfig(
            gossip_interval=0.05,
            eager_interval=0.02,
            query_deadline=8.0,
            wire="udp",
        )
        runtime, simulation, sessions = _run(workload, config)
        assert any(session.closed for session in sessions.values())
        check_trace(runtime.trace.events, simulation)


class TestDemo:
    def test_run_demo_sync_report(self, tmp_path):
        trace_path = tmp_path / "demo-trace.jsonl"
        report = run_demo_sync(
            num_users=20,
            num_queries=3,
            seed=5,
            deadline=8.0,
            trace_path=str(trace_path),
        )
        assert report["completed"] >= 1
        assert report["invariant_error"] is None
        assert demo_succeeded(report)
        assert report["bytes_total"] > 0
        assert trace_path.exists()
        text = format_report(report)
        assert "queries completed" in text
        assert "bytes on the wire" in text

    def test_demo_succeeded_requires_completion_and_clean_invariants(self):
        def report(completed, wire_events, invariant_error):
            return {
                "completed": completed,
                "wire_events": wire_events,
                "invariant_error": invariant_error,
            }

        assert not demo_succeeded(report(0, 10, None))
        assert not demo_succeeded(report(3, 10, "boom"))
        assert not demo_succeeded(report(3, 0, None))
        assert demo_succeeded(report(1, 10, None))

    def test_smoke_fails_a_run_that_never_touched_the_wire(self, capsys):
        # Three nodes: the personal network is two peers, below the default
        # storage, so every query is answered from local replicas.
        from repro.service.cli import main

        assert main(["--smoke", "--nodes", "3"]) == 1
        captured = capsys.readouterr()
        assert "wire events recorded: 0" in captured.out
        assert "no wire events recorded" in captured.err


class TestServiceHardening:
    """Service-mode failure paths: concurrent mutation, bad frames, crashes."""

    def test_eager_round_survives_mid_round_insertions(self):
        """A query arriving while the eager round is suspended must not
        break the round's iteration (the round snapshots both dicts)."""
        workload = build_demo_workload(num_users=12, num_queries=4, seed=3)
        simulation = converged_simulation(workload, 3)
        # Pick a query whose local partials leave remote work outstanding.
        session = None
        for query in workload.queries:
            node = simulation.nodes[query.querier]
            session = node.issue_query(query)
            if session.remaining:
                break
            del node.sessions[query.query_id]
        assert session is not None and session.remaining, (
            "test needs a session with outstanding work"
        )

        gen = node.eager_round_effects(1)
        effect = gen.send(None)  # suspend mid-iteration, as the runtime does
        # A concurrent inbound QueryForward / issue_query lands meanwhile.
        node.sessions[10_001] = node._live_sessions[10_001] = SimpleNamespace(remaining=[])
        node.forwarded[10_002] = SimpleNamespace(active=False)
        with pytest.raises(StopIteration):
            while True:
                if isinstance(effect, ProbeEffect):
                    effect = gen.send(False)
                elif isinstance(effect, RequestEffect):
                    effect = gen.send(Dispatch(DROPPED, None))
                else:
                    effect = gen.send(DROPPED)
        assert 10_001 in node.sessions
        assert 10_002 in node.forwarded

    def test_malformed_frame_is_dropped_not_fatal(self, caplog):
        workload = build_demo_workload(num_users=8, num_queries=1, seed=5)
        simulation = converged_simulation(workload, 3)
        config = ServiceConfig(gossip_interval=0.05, eager_interval=0.02)

        async def go():
            runtime = ServiceRuntime(simulation, config)
            await runtime.start()
            try:
                node_id = next(iter(runtime.services))
                assert runtime.wire.send(node_id, b"\xffnot-a-frame")
                await asyncio.sleep(0.05)
                assert not runtime.services[node_id]._inbox_task.done()
            finally:
                await runtime.stop()

        with caplog.at_level(logging.WARNING, logger="repro.service.runtime"):
            asyncio.run(go())
        assert "undecodable" in caplog.text

    def test_crashed_task_is_reported(self, caplog):
        async def boom():
            raise RuntimeError("kaboom")

        async def go():
            task = asyncio.create_task(boom(), name="boom-task")
            task.add_done_callback(_report_task_failure)
            await asyncio.gather(task, return_exceptions=True)
            await asyncio.sleep(0)  # let the done-callback run

        with caplog.at_level(logging.ERROR, logger="repro.service.runtime"):
            asyncio.run(go())
        assert "boom-task" in caplog.text
        assert "kaboom" in caplog.text


class TestServiceConfigValidation:
    def test_rejects_unknown_wire(self):
        with pytest.raises(ValueError, match="wire"):
            ServiceConfig(wire="tcp")

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError, match="gossip_interval"):
            ServiceConfig(gossip_interval=0)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            ServiceConfig(jitter=1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_timings(self, bad):
        with pytest.raises(ValueError, match="rpc_timeout"):
            ServiceConfig(rpc_timeout=bad)
        with pytest.raises(ValueError, match="jitter"):
            ServiceConfig(jitter=bad)

    def test_rejects_non_numeric_timings(self):
        with pytest.raises(ValueError, match="eager_interval"):
            ServiceConfig(eager_interval="fast")

    def test_validate_is_callable_directly(self):
        ServiceConfig().validate()


#: ``nan`` and a past cutoff used to run a zero-length deployment and exit 0.
BAD_DEADLINES = [float("nan"), float("inf"), 0, -1]


class TestDeadlineValidation:
    @pytest.mark.parametrize("bad", BAD_DEADLINES)
    def test_run_queries_rejects_it_before_issuing_anything(self, bad):
        workload = build_demo_workload(num_users=8, num_queries=1, seed=5)
        simulation = converged_simulation(workload, 3)

        async def go():
            runtime = ServiceRuntime(simulation, ServiceConfig())
            await runtime.start()
            try:
                with pytest.raises(ValueError, match="deadline must be a positive finite"):
                    await runtime.run_queries(workload.queries, deadline=bad)
            finally:
                await runtime.stop()

        asyncio.run(go())
        assert not any(node.sessions for node in simulation.nodes.values())

    @pytest.mark.parametrize("bad", BAD_DEADLINES)
    def test_cli_rejects_it_as_a_usage_error(self, bad, capsys):
        from repro.service.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--demo", "--deadline", str(bad)])
        assert exit_info.value.code == 2
        assert "--deadline must be a positive finite number" in capsys.readouterr().err


class TestOfflineQuerier:
    def test_its_query_is_refused_as_in_the_cycle_engine(self):
        workload = build_demo_workload(num_users=20, num_queries=2, seed=5)
        simulation = converged_simulation(workload, 3)
        query = workload.queries[0]
        simulation.depart_users([query.querier])
        deadline = 2.0

        async def go():
            runtime = ServiceRuntime(
                simulation, ServiceConfig(gossip_interval=0.05, eager_interval=0.02)
            )
            await runtime.start()
            try:
                with pytest.raises(ValueError, match=f"querier {query.querier} .* offline"):
                    runtime.issue_query(query)
                loop = asyncio.get_running_loop()
                start = loop.time()
                sessions = await runtime.run_queries([query], deadline=deadline)
                return sessions, loop.time() - start
            finally:
                await runtime.stop()

        sessions, elapsed = asyncio.run(go())
        assert sessions == simulation.issue_queries([query]) == {}
        assert elapsed < deadline / 4
        assert query.query_id not in simulation.nodes[query.querier].sessions


class TestStorageOption:
    def test_cli_rejects_negative_storage_as_a_usage_error(self, capsys):
        from repro.service.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--demo", "--storage", "-2"])
        assert exit_info.value.code == 2
        assert "--storage must not be negative" in capsys.readouterr().err


# ------------------------------------------------------------- PR 10 paths


class _FakeWire:
    def __init__(self, peers=(1, 2)):
        self.writes = []
        self.peers = set(peers)

    def has_peer(self, receiver):
        return receiver in self.peers

    def send(self, receiver, frame):
        self.writes.append((receiver, frame))
        return True


class TestFrameBatcher:
    def test_coalesces_same_tick_frames_per_destination(self):
        async def go():
            wire = _FakeWire()
            batcher = FrameBatcher(wire)
            assert batcher.send(1, b"aa")
            assert batcher.send(1, b"bb")
            assert batcher.send(2, b"cc")
            assert wire.writes == []  # nothing written inside the tick
            await asyncio.sleep(0)  # call_soon flush
            assert (1, b"aabb") in wire.writes
            assert (2, b"cc") in wire.writes
            assert batcher.empty()

        asyncio.run(go())

    def test_send_now_flushes_first_preserving_order(self):
        async def go():
            wire = _FakeWire()
            batcher = FrameBatcher(wire)
            batcher.send(1, b"aa")
            assert batcher.send_now(1, b"rr")
            assert wire.writes == [(1, b"aa"), (1, b"rr")]

        asyncio.run(go())

    def test_unknown_peer_is_refused(self):
        async def go():
            wire = _FakeWire(peers=(1,))
            batcher = FrameBatcher(wire)
            assert not batcher.send(9, b"aa")
            assert not batcher.send_now(9, b"aa")
            assert wire.writes == []

        asyncio.run(go())

    def test_budget_overflow_flushes_eagerly(self):
        async def go():
            wire = _FakeWire()
            batcher = FrameBatcher(wire)
            nearly_full = b"x" * (MAX_DATAGRAM_BYTES - 10)
            batcher.send(1, nearly_full)
            batcher.send(1, b"y" * 20)
            # The first frame flushed to make room; the second waits its tick.
            assert wire.writes == [(1, nearly_full)]
            await asyncio.sleep(0)
            assert wire.writes[-1] == (1, b"y" * 20)

        asyncio.run(go())

    def test_oversized_frame_writes_through_in_caller_context(self):
        async def go():
            wire = _FakeWire()
            batcher = FrameBatcher(wire)
            big = b"z" * (MAX_DATAGRAM_BYTES + 1)
            batcher.send(1, b"aa")
            batcher.send(1, big)
            # Queued frames flush first (order), then the oversized frame
            # goes straight to the wire so its refusal raises at the caller.
            assert wire.writes == [(1, b"aa"), (1, big)]

        asyncio.run(go())


class TestTimerWheel:
    def test_fires_in_deadline_order(self):
        async def go():
            wheel = TimerWheel()
            wheel.start()
            fired = []
            done = asyncio.Event()
            wheel.schedule(0.03, lambda: fired.append("late"))
            wheel.schedule(0.01, lambda: (fired.append("early"), done.set()))
            await asyncio.wait_for(done.wait(), 2.0)
            await asyncio.sleep(0.05)
            await wheel.stop()
            assert fired == ["early", "late"]

        asyncio.run(go())

    def test_schedule_after_stop_is_noop(self):
        async def go():
            wheel = TimerWheel()
            wheel.start()
            await wheel.stop()
            wheel.schedule(0.0, lambda: pytest.fail("fired after stop"))
            assert len(wheel) == 0
            await asyncio.sleep(0.02)

        asyncio.run(go())

    def test_one_scheduler_task_replaces_per_node_timers(self):
        """Acceptance: task count is O(1)-per-node lower at steady state."""
        num_users = 12
        workload = build_demo_workload(num_users=num_users, num_queries=1, seed=3)
        simulation = converged_simulation(workload, 3)

        async def go():
            runtime = ServiceRuntime(simulation, ServiceConfig())
            await runtime.start()
            try:
                await asyncio.sleep(0.15)
                names = [task.get_name() for task in asyncio.all_tasks()]
                wheels = [n for n in names if n == "timer-wheel"]
                inboxes = [n for n in names if n.startswith("inbox-")]
                legacy = [n for n in names if n.startswith(("gossip-", "eager-"))]
                assert len(wheels) == 1
                assert len(inboxes) == num_users
                assert legacy == [], "per-node timer tasks must be gone"
                # Old design: 3 persistent tasks per node.  New: one inbox
                # per node plus a single shared wheel.
                assert len(wheels) + len(inboxes) == num_users + 1 < 3 * num_users
            finally:
                await runtime.stop()

        asyncio.run(go())

    def test_jittered_firing_is_preserved(self, monkeypatch):
        """Acceptance: wheel firings keep the per-node jitter distribution.

        Pools inter-firing gaps across nodes: with ``jitter=0.5`` each gap
        is ``round_duration + interval * U(0.5, 1.5)``, so the spread is
        wide (uniform cv ~= 0.29); with ``jitter=0`` gaps hug the interval.
        """
        fire_gossip = NodeService._fire_gossip
        # node id -> loop times at which its gossip round fired.
        fired = {}

        def recording_fire_gossip(service):
            if service.runtime.running:
                loop_time = asyncio.get_running_loop().time()
                fired.setdefault(service.node_id, []).append(loop_time)
            fire_gossip(service)

        monkeypatch.setattr(NodeService, "_fire_gossip", recording_fire_gossip)

        def observed_gaps(jitter):
            workload = build_demo_workload(num_users=8, num_queries=1, seed=13)
            simulation = converged_simulation(workload, 3)
            config = ServiceConfig(gossip_interval=0.04, jitter=jitter)
            fired.clear()

            async def run():
                runtime = ServiceRuntime(simulation, config)
                await runtime.start()
                try:
                    await asyncio.sleep(0.8)
                finally:
                    await runtime.stop()

            asyncio.run(run())
            gaps = []
            for times in fired.values():
                gaps.extend(b - a for a, b in zip(times, times[1:]))
            return gaps

        jittered = observed_gaps(jitter=0.5)
        steady = observed_gaps(jitter=0.0)
        assert len(jittered) >= 30 and len(steady) >= 30

        def cv(values):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            return math.sqrt(var) / mean

        assert cv(jittered) > 0.12, f"jittered gaps too uniform: cv={cv(jittered):.3f}"
        assert cv(jittered) > cv(steady), (
            f"jitter must widen the gap spread: {cv(jittered):.3f} vs {cv(steady):.3f}"
        )


class TestCodecParity:
    """The service path through the codec: clean invariants, bytes priced
    by ``gossip.sizes`` (never by encoded frame length)."""

    def test_run_passes_invariants_and_prices_by_sizes(self):
        workload = build_demo_workload(num_users=16, num_queries=2, seed=9)
        config = ServiceConfig(query_deadline=8.0)
        runtime, simulation, sessions = _run(workload, config)
        check_trace(runtime.trace.events, simulation)
        accounted = sum(
            total_bytes(event.message)
            for event in runtime.trace.events
            if event.accounted
        )
        assert accounted == simulation.stats.total_bytes()
        assert any(session.closed for session in sessions.values())

    def test_malformed_binary_body_is_dropped_not_fatal(self, caplog):
        """A well-framed body with a bad binary tag drops loudly, inbox lives."""
        workload = build_demo_workload(num_users=8, num_queries=1, seed=5)
        simulation = converged_simulation(workload, 3)
        config = ServiceConfig()
        bad_body = bytes([0x03, 0x00, 0x00, 0x00, 0xEE])  # send frame, tag 0xEE
        frame = struct.pack(">I", len(bad_body)) + bad_body

        async def go():
            runtime = ServiceRuntime(simulation, config)
            await runtime.start()
            try:
                node_id = next(iter(runtime.services))
                assert runtime.wire.send(node_id, frame)
                await asyncio.sleep(0.05)
                assert not runtime.services[node_id]._inbox_task.done()
            finally:
                await runtime.stop()

        with caplog.at_level(logging.WARNING, logger="repro.service.runtime"):
            asyncio.run(go())
        assert "undecodable" in caplog.text
