"""Service mode: P3Q as a networked system on the sans-io node API.

The cycle engine (:mod:`repro.simulator.engine`) drives the protocol cores
synchronously for reproducibility; this package drives the *same* cores --
the ``*_effects`` generators of :mod:`repro.gossip` and :mod:`repro.p3q` --
from an asyncio runtime where every node is a concurrently running task,
gossip rounds fire on timers instead of engine cycles, and messages travel
as length-prefixed binary frames (:mod:`repro.service.codec`) over an
in-process loopback wire or real UDP sockets.

Live runs record the same :class:`~repro.simulator.transport.WireEvent`
stream the simulator's transports emit, so the simtest invariant checkers
(:mod:`repro.simtest.invariants`) audit a service run exactly like a
simulated one.  See ``docs/ARCHITECTURE.md`` ("Service mode").
"""

from .codec import BinaryWireCodec
from .runtime import FrameBatcher, NodeService, ServiceConfig, ServiceRuntime, TimerWheel
from .trace import ServiceTrace, check_trace

__all__ = [
    "BinaryWireCodec",
    "FrameBatcher",
    "NodeService",
    "ServiceConfig",
    "ServiceRuntime",
    "ServiceTrace",
    "TimerWheel",
    "check_trace",
]
