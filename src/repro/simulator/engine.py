"""Cycle-driven simulation engine.

The engine advances the simulation one *cycle* at a time (PeerSim's
cycle-driven model).  Within a cycle every online node executes its protocol
once, in a per-cycle shuffled order so that no node is systematically
favoured.  Separate logical phases ("lazy", "eager") can be stepped
independently and with different per-cycle real-time durations, mirroring
the paper's 1-minute lazy cycles and 5-second eager cycles.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .network import Network
from .rng import SeededRngFactory


@contextmanager
def paused_gc():
    """Suspend automatic garbage collection for a cycle batch.

    The simulator's heap is overwhelmingly *acyclic* -- profiles, digests,
    cached probe rows and traffic rows are containers of ints, tuples and
    frozensets, all freed by reference counting -- yet its sheer size makes
    every generational collection walk millions of live objects.  Measured
    on an N=10,000 run, the collector fired two thousand times across three
    cycles and reclaimed fewer than a hundred objects while accounting for
    more than half the wall clock.  Batches therefore run with automatic
    collection paused; the previous state is restored afterwards (nested
    pauses are safe: an inner exit leaves collection disabled until the
    outermost guard re-enables it).  No explicit collection is triggered on
    exit -- the rare cyclic garbage simply waits for the caller's next
    natural collection.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

#: Phase names used by P3Q; the engine accepts any string.
PHASE_LAZY = "lazy"
PHASE_EAGER = "eager"

#: A hook invoked with (engine, cycle) either before or after a cycle.
CycleHook = Callable[["SimulationEngine", int], None]


@dataclass
class ScheduledEvent:
    """An action to run at the start of a specific cycle of a phase."""

    cycle: int
    phase: str
    action: Callable[["SimulationEngine"], None]
    description: str = ""


class SimulationEngine:
    """Drives a :class:`~repro.simulator.network.Network` through cycles."""

    def __init__(self, network: Network, seed: int = 0) -> None:
        self.network = network
        self.rng_factory = SeededRngFactory(seed)
        self._scheduler_rng = self.rng_factory.for_purpose("scheduler")
        #: Per-phase cycle counters (how many cycles of each phase have run).
        self.cycle_counts: Dict[str, int] = {}
        #: Events indexed by ``(phase, cycle)`` so each cycle pops its own
        #: bucket in O(1) instead of rescanning and rebuilding the full list.
        self._events: Dict[Tuple[str, int], List[ScheduledEvent]] = {}
        self._pre_hooks: List[CycleHook] = []
        self._post_hooks: List[CycleHook] = []
        #: Global cycle counter across all phases, used for traffic accounting.
        self.global_cycle = 0
        #: Phase of the cycle currently (or most recently) running; observers
        #: (e.g. simtest invariant checkers) read it instead of threading the
        #: phase through every callback.
        self.current_phase: Optional[str] = None

    # -- configuration --------------------------------------------------------

    def schedule(self, event: ScheduledEvent) -> None:
        """Register an event (e.g. churn, profile change) for a future cycle."""
        if event.cycle < 0:
            raise ValueError("event cycle must be non-negative")
        self._events.setdefault((event.phase, event.cycle), []).append(event)

    def add_pre_cycle_hook(self, hook: CycleHook) -> None:
        self._pre_hooks.append(hook)

    def add_post_cycle_hook(self, hook: CycleHook) -> None:
        self._post_hooks.append(hook)

    def cycles_run(self, phase: str) -> int:
        return self.cycle_counts.get(phase, 0)

    # -- execution ------------------------------------------------------------

    def run_cycle(
        self,
        phase: str = PHASE_LAZY,
        participants: Optional[Sequence[int]] = None,
    ) -> int:
        """Run one cycle of ``phase``; returns the phase-local cycle index.

        ``participants`` restricts which nodes act this cycle (the eager mode
        only involves nodes that hold a pending query); when omitted every
        online node acts.
        """
        cycle_index = self.cycle_counts.get(phase, 0)
        self.current_phase = phase
        self.network.current_cycle = self.global_cycle

        for event in self._events.pop((phase, cycle_index), ()):
            event.action(self)

        # Deliver in-flight messages after events so that churn applies first
        # (a message to a freshly departed node is lost, as on a real wire).
        transport = self.network.transport
        if transport.pending_count():
            transport.drain()

        for hook in self._pre_hooks:
            hook(self, cycle_index)

        # ``online_ids`` hands back a fresh list, so it doubles as the
        # shuffle buffer -- no second O(N) copy per cycle.
        if participants is None:
            order = self.network.online_ids()
        else:
            order = [nid for nid in participants if self.network.is_online(nid)]
        self._scheduler_rng.shuffle(order)
        for node_id in order:
            # A node taken offline earlier in this very cycle must not act.
            if self.network.is_online(node_id):
                self.network.node(node_id).on_cycle(cycle_index, phase)

        for hook in self._post_hooks:
            hook(self, cycle_index)

        # Cycle boundary: fan the profiles that changed during this cycle out
        # to the incremental-runtime listeners (digest-cache eviction).  Quiet
        # cycles flush an empty set at no cost -- invalidation work is
        # O(changes), never O(N).
        self.network.flush_dirty_profiles()

        self.cycle_counts[phase] = cycle_index + 1
        self.global_cycle += 1
        return cycle_index

    def run_cycles(
        self,
        count: int,
        phase: str = PHASE_LAZY,
        participants: Optional[Sequence[int]] = None,
        callback: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Run ``count`` consecutive cycles of ``phase``.

        ``callback`` is called with the phase-local cycle index after each
        cycle; experiments use it to record per-cycle metrics without
        subclassing the engine.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        with paused_gc():
            for _ in range(count):
                index = self.run_cycle(phase=phase, participants=participants)
                if callback is not None:
                    callback(index)
