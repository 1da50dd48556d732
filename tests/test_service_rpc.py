"""The rpc boundary of the service runtime: round trips, their one deadline
queue, and what a timed-out request leaves behind.

Every test drives a real (small, in-process) deployment whose timers are
parked far in the future, so the only traffic is what the test sends.
"""

from __future__ import annotations

import asyncio
import logging

from repro.experiments.runner import converged_simulation
from repro.service import ServiceConfig, ServiceRuntime
from repro.service.codec import BinaryWireCodec
from repro.service.demo import build_demo_workload
from repro.simulator.effects import RequestEffect
from repro.simulator.transport import (
    DELIVERED,
    DROPPED,
    OP_REQUEST,
    CommonItemsRequest,
    DigestPullReply,
    Envelope,
    FullProfileRequest,
    WireEvent,
)

#: Rounds never fire inside a test: the first firing is a uniform draw over
#: the interval, seeded per node.
PARKED = 3600.0
#: How late a deadline may fire on a loaded box before a test calls it wrong.
SLACK = 0.5


def _deployment(rpc_timeout: float = 0.1, num_users: int = 8):
    workload = build_demo_workload(num_users=num_users, num_queries=1, seed=5)
    simulation = converged_simulation(workload, 3)
    config = ServiceConfig(
        gossip_interval=PARKED, eager_interval=PARKED, rpc_timeout=rpc_timeout
    )
    return simulation, ServiceRuntime(simulation, config)


def _rows(simulation) -> DigestPullReply:
    """A message carrying digest rows (no handler answers it as a request)."""
    digests = tuple(
        simulation.digest_cache.digest_for(simulation.nodes[user_id].profile)
        for user_id in list(simulation.nodes)[:3]
    )
    return DigestPullReply(digests=digests)


class _SwallowFirst:
    """Wrap ``wire.send``: the first frame to ``victim`` is accepted and lost."""

    def __init__(self, wire, victim: int) -> None:
        self._send = wire.send
        self._victim = victim
        self.swallowed = 0
        wire.send = self

    def __call__(self, receiver: int, frame: bytes) -> bool:
        if receiver == self._victim and not self.swallowed:
            self.swallowed += 1
            return True
        return self._send(receiver, frame)


class TestTimedOutRequestForgetsItsLink:
    def test_next_encode_after_a_lost_seeding_frame_carries_full_rows(self):
        simulation, runtime = _deployment(rpc_timeout=0.05)
        sender, receiver = list(simulation.nodes)[:2]
        message = _rows(simulation)

        async def go():
            await runtime.start()
            try:
                lossy = _SwallowFirst(runtime.wire, receiver)
                service = runtime.services[sender]
                dispatch = await service.request(sender, receiver, message)
                assert lossy.swallowed == 1
                assert dispatch.status == DROPPED
                return service.codec.encode_send(
                    Envelope(sender, receiver, message, None, False)
                )
            finally:
                await runtime.stop()

        frame = asyncio.run(go())
        # A codec that never saw the lost frame -- the receiver's state --
        # must decode the follow-up: every row is a full row.
        fresh = BinaryWireCodec()
        bodies, leftover = fresh.split(frame)
        assert leftover == b"" and len(bodies) == 1
        decoded = fresh.decode_body(bodies[0])["m"]
        assert [d.user_id for d in decoded.digests] == [d.user_id for d in message.digests]


def _pending_timers(loop):
    """Timer handles the loop still holds that would fire (private, stable)."""
    return [handle for handle in loop._scheduled if not handle.cancelled()]


class TestTimeoutPath:
    def test_unanswered_request_resolves_dropped_at_the_deadline_and_is_traced_once(self):
        simulation, runtime = _deployment(rpc_timeout=0.1)
        sender, receiver = list(simulation.nodes)[:2]
        message = _rows(simulation)

        async def go():
            await runtime.start()
            try:
                _SwallowFirst(runtime.wire, receiver)
                loop = asyncio.get_running_loop()
                started = loop.time()
                dispatch = await runtime.services[sender].request(sender, receiver, message)
                return dispatch, loop.time() - started
            finally:
                await runtime.stop()

        dispatch, elapsed = asyncio.run(go())
        assert dispatch.status == DROPPED and dispatch.reply is None
        assert 0.1 <= elapsed < 0.1 + SLACK
        assert list(runtime.trace.events) == [
            WireEvent(OP_REQUEST, sender, receiver, message, DROPPED, True, None)
        ]
        assert len(runtime.rpc_latencies) == 0

    def test_late_reply_is_discarded_without_error_or_second_event(self, caplog):
        simulation, runtime = _deployment(rpc_timeout=0.05)
        sender, receiver = list(simulation.nodes)[:2]
        message = _rows(simulation)

        async def go():
            await runtime.start()
            try:
                _SwallowFirst(runtime.wire, receiver)
                service = runtime.services[sender]
                dispatch = await service.request(sender, receiver, message)
                assert dispatch.status == DROPPED
                recorded = len(runtime.trace.events)
                # The answer the receiver would have sent, after the deadline.
                late = runtime.services[receiver].codec.encode_reply(
                    service._rpc_counter, DELIVERED, None
                )
                assert runtime.wire.send(sender, late)
                await asyncio.sleep(0.02)
                assert not service._inbox_task.done()
                assert service._rpc_futures == {}
                return recorded
            finally:
                await runtime.stop()

        with caplog.at_level(logging.WARNING, logger="repro.service.runtime"):
            recorded = asyncio.run(go())
        assert caplog.text == ""
        assert len(runtime.trace.events) == recorded == 1

    def test_answered_round_trips_leave_no_deadline_and_no_future_behind(self):
        simulation, runtime = _deployment(rpc_timeout=5.0)
        sender, *others = list(simulation.nodes)
        message = _rows(simulation)

        async def go():
            await runtime.start()
            try:
                service = runtime.services[sender]
                dispatches = await asyncio.gather(
                    *(
                        service.request(sender, others[index % len(others)], message)
                        for index in range(200)
                    )
                )
                return dispatches, len(runtime.rpc_deadlines._queue), dict(service._rpc_futures)
            finally:
                await runtime.stop()

        dispatches, queued, futures = asyncio.run(go())
        assert [dispatch.status for dispatch in dispatches] == [DELIVERED] * 200
        assert queued == 0 and futures == {}
        assert len(runtime.rpc_latencies) == 200

    def test_answered_round_trips_do_not_pile_up_behind_a_lost_one(self):
        simulation, runtime = _deployment(rpc_timeout=30.0)
        sender, victim, *others = list(simulation.nodes)
        message = _rows(simulation)
        floor = runtime.rpc_deadlines._COMPACT_FLOOR

        async def go():
            await runtime.start()
            _SwallowFirst(runtime.wire, victim)
            service = runtime.services[sender]
            lost = asyncio.create_task(service.request(sender, victim, message))
            await asyncio.sleep(0)
            longest = 0
            for index in range(3 * floor):
                await service.request(sender, others[index % len(others)], message)
                longest = max(longest, len(runtime.rpc_deadlines._queue))
            await runtime.stop()
            return longest, (await lost).status

        longest, status = asyncio.run(go())
        # The lost head pins what follows it, but only up to the next scan.
        assert floor // 2 < longest <= floor
        assert status == DROPPED

    def test_stop_waits_out_a_round_trip_in_flight_and_leaves_no_timer(self):
        simulation, runtime = _deployment(rpc_timeout=0.2)
        sender, receiver = list(simulation.nodes)[:2]
        message = _rows(simulation)
        outcome = []

        async def a_round(service):
            outcome.append(await service.request(sender, receiver, message))

        async def go():
            loop = asyncio.get_running_loop()
            await runtime.start()
            _SwallowFirst(runtime.wire, receiver)
            service = runtime.services[sender]
            service._spawn_round(a_round(service), "round-under-test")
            await asyncio.sleep(0)  # the request is on the wire
            assert len(runtime.rpc_deadlines._queue) == 1
            started = loop.time()
            await runtime.stop()
            return loop.time() - started, _pending_timers(loop)

        elapsed, timers = asyncio.run(go())
        assert [dispatch.status for dispatch in outcome] == [DROPPED]
        assert elapsed < 0.2 + SLACK
        assert timers == []
        assert len(runtime.rpc_deadlines._queue) == 0


    def test_stop_expires_a_round_trip_nothing_joins(self):
        """A request started outside rounds and handlers is not waited for,
        but it must not be left on a timer that stop() took away."""
        simulation, runtime = _deployment(rpc_timeout=30.0)
        sender, receiver = list(simulation.nodes)[:2]
        message = _rows(simulation)

        async def go():
            await runtime.start()
            _SwallowFirst(runtime.wire, receiver)
            stray = asyncio.create_task(
                runtime.services[sender].request(sender, receiver, message)
            )
            await asyncio.sleep(0)
            await runtime.stop()
            return await asyncio.wait_for(stray, timeout=SLACK)

        assert asyncio.run(go()).status == DROPPED


class TestHandlersStepInline:
    """A handler runs in the inbox reader until its first round trip."""

    def _mutual(self, runtime, left: int, right: int, ran_in):
        """Both nodes answer a ``CommonItemsRequest`` by first asking the
        sender for a profile -- a request back at the node awaiting them."""

        def handler(node_id: int):
            def effects(envelope: Envelope):
                ran_in.append(
                    (type(envelope.message).__name__, asyncio.current_task().get_name())
                )
                if isinstance(envelope.message, CommonItemsRequest):
                    dispatch = yield RequestEffect(
                        node_id, envelope.sender, FullProfileRequest(subject_id=node_id)
                    )
                    assert dispatch.status == DELIVERED
                return None

            return effects

        for node_id in (left, right):
            runtime.services[node_id].node.handle_message_effects = handler(node_id)

    def test_mutually_requesting_handlers_complete(self):
        simulation, runtime = _deployment(rpc_timeout=1.0)
        left, right = list(simulation.nodes)[:2]
        ran_in = []
        ask = CommonItemsRequest(subject_id=0, items=frozenset({1}))

        async def go():
            await runtime.start()
            try:
                self._mutual(runtime, left, right, ran_in)
                return await asyncio.wait_for(
                    asyncio.gather(
                        runtime.services[left].request(left, right, ask),
                        runtime.services[right].request(right, left, ask),
                    ),
                    timeout=0.5,
                )
            finally:
                await runtime.stop()

        dispatches = asyncio.run(go())
        assert [dispatch.status for dispatch in dispatches] == [DELIVERED, DELIVERED]
        # The nested requests were answered from inside the inbox readers,
        # while both outer handlers were suspended on them.
        assert sorted(ran_in) == sorted(
            [
                ("CommonItemsRequest", f"inbox-{left}"),
                ("CommonItemsRequest", f"inbox-{right}"),
                ("FullProfileRequest", f"inbox-{left}"),
                ("FullProfileRequest", f"inbox-{right}"),
            ]
        )

    def test_a_handler_without_a_round_trip_creates_no_task(self, monkeypatch):
        simulation, runtime = _deployment(rpc_timeout=1.0)
        left, right = list(simulation.nodes)[:2]
        created = []
        create_task = asyncio.create_task

        def counting(coro, **kwargs):
            created.append(coro)
            return create_task(coro, **kwargs)

        async def go():
            await runtime.start()
            try:
                self._mutual(runtime, left, right, [])
                monkeypatch.setattr(asyncio, "create_task", counting)
                before = len(asyncio.all_tasks())
                service = runtime.services[left]
                plain = await service.request(left, right, FullProfileRequest(subject_id=left))
                assert len(asyncio.all_tasks()) == before and created == []
                nested = await service.request(
                    left, right, CommonItemsRequest(subject_id=0, items=frozenset({1}))
                )
                return plain, nested
            finally:
                monkeypatch.undo()
                await runtime.stop()

        plain, nested = asyncio.run(go())
        assert plain.status == nested.status == DELIVERED
        assert len(created) == 1  # the one handler that reached a round trip
