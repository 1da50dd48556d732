"""The serving driver: inject a workload, settle outcomes, measure.

The driver turns the cycle simulator into a closed-loop query server: each
driver cycle it applies any scheduled profile changes, admits queries from
the workload's stream up to the configured concurrency and arrival rate,
runs one eager cycle, and settles the open sessions -- a session that
closed is **completed** (its latency is
:attr:`~repro.p3q.query.QuerySession.latency_cycles`), one older than the
cutoff is **abandoned** with its coverage at that point, and a query whose
querier was offline at admission is **rejected**.

The measurement layer (:class:`ServingResult`) reports QPS per cycle and
per wall-second, nearest-rank latency percentiles over the completed
queries, coverage-at-cutoff over the abandoned ones, and the resource
envelope (CPU time, wall time, peak RSS) of the run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..p3q.protocol import P3QSimulation
from ..p3q.query import QuerySession
from .resources import ResourceEnvelope, ResourceProbe
from .workloads import ServingWorkload

#: Outcome states a query can settle into.
COMPLETED = "completed"
ABANDONED = "abandoned"
REJECTED = "rejected"


@dataclass(frozen=True)
class ServingConfig:
    """Injection and settlement knobs of one serving run."""

    #: Maximum simultaneously open sessions (admission stalls above this).
    concurrency: int = 8
    #: Queries admitted per driver cycle (subject to free concurrency slots).
    arrivals_per_cycle: int = 4
    #: Hard stop: the driver never runs more cycles than this.
    max_cycles: int = 200
    #: A session still open this many cycles after issue is abandoned.
    cutoff_cycles: int = 25

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if self.arrivals_per_cycle < 1:
            raise ValueError("arrivals_per_cycle must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        if self.cutoff_cycles < 1:
            raise ValueError("cutoff_cycles must be positive")


@dataclass(frozen=True)
class QueryOutcome:
    """How one injected query settled."""

    query_id: int
    querier: int
    issued_cycle: int
    status: str
    #: Issue-to-close latency in eager cycles (completed queries only).
    latency_cycles: Optional[int]
    #: Coverage at settlement (1.0 for completed, partial for abandoned,
    #: 0.0 for rejected).
    coverage: float


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (inclusive); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class ServingResult:
    """Outcomes plus the measured envelope of one serving run."""

    workload: str
    config: ServingConfig
    outcomes: List[QueryOutcome]
    #: Driver cycles actually run (eager cycles executed by this run).
    cycles: int
    envelope: ResourceEnvelope
    #: Messages sent during the run (every kind, lazy-layer refreshes
    #: included -- the cost of serving includes the gossip keeping the
    #: overlay alive).
    messages: int = 0
    #: Profile-change days applied while queries were in flight.
    change_days_applied: int = 0
    _by_status: Dict[str, List[QueryOutcome]] = field(default_factory=dict, repr=False)

    def _status(self, status: str) -> List[QueryOutcome]:
        cached = self._by_status.get(status)
        if cached is None:
            cached = [o for o in self.outcomes if o.status == status]
            self._by_status[status] = cached
        return cached

    # -- throughput -----------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self._status(COMPLETED))

    @property
    def abandoned(self) -> int:
        return len(self._status(ABANDONED))

    @property
    def rejected(self) -> int:
        return len(self._status(REJECTED))

    @property
    def qps_cycle(self) -> float:
        """Completed queries per eager cycle."""
        return self.completed / self.cycles if self.cycles else 0.0

    @property
    def qps_wall(self) -> float:
        """Completed queries per wall-clock second."""
        wall = self.envelope.wall_seconds
        return self.completed / wall if wall > 0 else 0.0

    # -- latency --------------------------------------------------------------

    def latencies(self) -> List[int]:
        """Issue-to-close latencies of the completed queries, in cycles."""
        return [
            o.latency_cycles
            for o in self._status(COMPLETED)
            if o.latency_cycles is not None
        ]

    def latency_percentile(self, pct: float) -> float:
        return percentile(self.latencies(), pct)

    # -- quality --------------------------------------------------------------

    def abandoned_coverages(self) -> List[float]:
        return [o.coverage for o in self._status(ABANDONED)]

    @property
    def coverage_at_cutoff(self) -> float:
        """Mean coverage the abandoned queries had reached (1.0 when none)."""
        coverages = self.abandoned_coverages()
        if not coverages:
            return 1.0
        return sum(coverages) / len(coverages)

    # -- reporting ------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The flat metrics dictionary ``python -m repro serving`` prints."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "concurrency": self.config.concurrency,
            "arrivals_per_cycle": self.config.arrivals_per_cycle,
            "num_queries": len(self.outcomes),
            "completed": self.completed,
            "abandoned": self.abandoned,
            "rejected": self.rejected,
            "cycles": self.cycles,
            "qps_cycle": self.qps_cycle,
            "qps_wall": self.qps_wall,
            "latency_p50": self.latency_percentile(50),
            "latency_p95": self.latency_percentile(95),
            "latency_p99": self.latency_percentile(99),
            "coverage_at_cutoff": self.coverage_at_cutoff,
            "messages": self.messages,
            "messages_per_cycle": self.messages / self.cycles if self.cycles else 0.0,
            "change_days_applied": self.change_days_applied,
        }
        out.update(self.envelope.as_dict())
        return out


def run_serving(
    simulation: P3QSimulation,
    workload: ServingWorkload,
    config: Optional[ServingConfig] = None,
) -> ServingResult:
    """Drive one workload through a (converged) simulation and measure it.

    The simulation must have populated personal networks (warm-started or
    lazy-converged); the driver only runs eager cycles.  It returns once
    every query settled or ``config.max_cycles`` driver cycles elapsed --
    at the horizon, still-open sessions settle as abandoned and never
    admitted queries as rejected.
    """
    config = config or ServingConfig()
    pending = deque(workload.queries)
    open_sessions: Dict[int, QuerySession] = {}
    queriers: Dict[int, int] = {}
    outcomes: List[QueryOutcome] = []
    change_days_applied = 0
    messages_before = simulation.stats.total_messages()
    probe = ResourceProbe()

    def settle(session: QuerySession, status: str) -> None:
        outcomes.append(
            QueryOutcome(
                query_id=session.query.query_id,
                querier=session.query.querier,
                issued_cycle=session.issued_cycle,
                status=status,
                latency_cycles=session.latency_cycles if status == COMPLETED else None,
                coverage=session.coverage,
            )
        )

    cycles = 0
    while (pending or open_sessions) and cycles < config.max_cycles:
        change = workload.change_schedule.get(cycles)
        if change is not None:
            simulation.apply_profile_changes(change)
            change_days_applied += 1

        slots = config.concurrency - len(open_sessions)
        batch = []
        while pending and len(batch) < min(config.arrivals_per_cycle, slots):
            batch.append(pending.popleft())
        if batch:
            sessions = simulation.issue_queries(batch)
            for query in batch:
                session = sessions.get(query.query_id)
                if session is None:
                    # The querier was offline at admission: rejected, never
                    # entered the system.
                    outcomes.append(
                        QueryOutcome(
                            query_id=query.query_id,
                            querier=query.querier,
                            issued_cycle=simulation.eager_cycles_run,
                            status=REJECTED,
                            latency_cycles=None,
                            coverage=0.0,
                        )
                    )
                elif session.closed:
                    # The local replicas already covered the whole personal
                    # network: served at issue time (latency 0).
                    settle(session, COMPLETED)
                else:
                    open_sessions[query.query_id] = session
                    queriers[query.query_id] = query.querier

        simulation.run_eager(1, stop_when_idle=False)
        cycles += 1

        now = simulation.eager_cycles_run
        for query_id in list(open_sessions):
            session = open_sessions[query_id]
            if session.closed:
                settle(session, COMPLETED)
                del open_sessions[query_id]
            elif now - session.issued_cycle >= config.cutoff_cycles:
                settle(session, ABANDONED)
                del open_sessions[query_id]

    # Horizon exhausted: drain whatever is left so every query has an outcome.
    for session in open_sessions.values():
        settle(session, ABANDONED)
    for query in pending:
        outcomes.append(
            QueryOutcome(
                query_id=query.query_id,
                querier=query.querier,
                issued_cycle=simulation.eager_cycles_run,
                status=REJECTED,
                latency_cycles=None,
                coverage=0.0,
            )
        )

    envelope = probe.stop()
    return ServingResult(
        workload=workload.name,
        config=config,
        outcomes=outcomes,
        cycles=cycles,
        envelope=envelope,
        messages=simulation.stats.total_messages() - messages_before,
        change_days_applied=change_days_applied,
    )
