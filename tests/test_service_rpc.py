"""The rpc boundary of the service runtime: round trips, their one deadline
queue, and what a timed-out request leaves behind.

Every test drives a real (small, in-process) deployment whose timers are
parked far in the future, so the only traffic is what the test sends.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.runner import converged_simulation
from repro.service import ServiceConfig, ServiceRuntime
from repro.service.codec import BinaryWireCodec
from repro.service.demo import build_demo_workload
from repro.simulator.transport import (
    DROPPED,
    VIEW_RANDOM,
    DigestAdvertisement,
    Envelope,
)

#: Rounds never fire inside a test: the first firing is a uniform draw over
#: the interval, seeded per node.
PARKED = 3600.0


def _deployment(rpc_timeout: float = 0.1, num_users: int = 8):
    workload = build_demo_workload(num_users=num_users, num_queries=1, seed=5)
    simulation = converged_simulation(workload, 3)
    config = ServiceConfig(
        gossip_interval=PARKED, eager_interval=PARKED, rpc_timeout=rpc_timeout
    )
    return simulation, ServiceRuntime(simulation, config)


def _advertisement(simulation) -> DigestAdvertisement:
    digests = tuple(
        simulation.digest_cache.digest_for(simulation.nodes[user_id].profile)
        for user_id in list(simulation.nodes)[:3]
    )
    return DigestAdvertisement(digests=digests, view=VIEW_RANDOM)


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
        message = _advertisement(simulation)

        async def go():
            await runtime.start()
            try:
                lossy = _SwallowFirst(runtime.wire, receiver)
                service = runtime.services[sender]
                dispatch = await service.request(sender, receiver, message, account=False)
                assert lossy.swallowed == 1
                assert dispatch.status == DROPPED
                return service.codec.encode_send(
                    Envelope(sender, receiver, message, None, False, False)
                )
            finally:
                await runtime.stop()

        frame = asyncio.run(go())
        # A codec that never saw the seeding frame -- the receiver's state --
        # must decode the follow-up: full rows, no dangling reference.
        fresh = BinaryWireCodec()
        bodies, leftover = fresh.split(frame)
        assert leftover == b"" and len(bodies) == 1
        decoded = fresh.decode_body(bodies[0])["m"]
        assert [d.user_id for d in decoded.digests] == [d.user_id for d in message.digests]
