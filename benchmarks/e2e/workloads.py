"""The four workloads: inputs from a seed, one pass, one pass's numbers.

A workload is prepared once per run (corpus, ideal index, query streams and
their reference answers) and then run as several identical *passes*, each on
a fresh :class:`~repro.p3q.protocol.P3QSimulation` over a copy of the
corpus.  The library only ever sees generated inputs -- datasets, queries,
change days, storage maps -- never a workload name or the seed itself.

What ``--seed`` draws is the *arrival orders* of the timed passes (hence
which queries are in flight together): a few orders per run, taken in turn,
so the latency percentiles pool several schedules.  The corpus (the library's default
synthetic trace at the workload's size), the storage budgets, the change
days, the queriers (an even sample over the user ids) and what each asks for
are the same for every seed: measured over ten seeds, a seeded corpus moves
the lazy-cycle time by 15%, and seeded queriers, budgets or topics move a
pass's bytes and latency percentiles by 5-17% -- with sixty queries a pass
the draw would outweigh the code in every bound.  The warm-up pass of a
cycle-engine workload runs the *reference* order (no seed at all) and the
four counts are read from it, so they are bit-equal on every run of the
same code whatever the seed.

Every second in this module is a box-normalised second (see :mod:`.speed`)
unless it says wall.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import hashlib
import itertools
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.centralized import CentralizedTopK
from repro.data.dynamics import DynamicsConfig, ProfileDynamicsGenerator, apply_change_day
from repro.data.queries import Query, QueryWorkloadGenerator
from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.experiments.scenarios import poisson_storage_distribution
from repro.metrics.convergence import average_success_ratio
from repro.metrics.recall import recall
from repro.p3q.config import P3QConfig
from repro.p3q.protocol import P3QSimulation
from repro.service.runtime import ServiceRuntime
from repro.service.trace import check_trace
from repro.serving.driver import ABANDONED, COMPLETED, REJECTED, percentile
from repro.simulator.stats import KIND_REMAINING_FORWARD
from repro.simulator.transport import DROPPED, OP_REQUEST
from repro.similarity.knn import IdealNetworkIndex
from repro.simtest.invariants import InvariantViolation

from . import speed

clock = time.perf_counter

#: Every attempted query settles into exactly one outcome: the serving
#: driver's ``COMPLETED`` / ``ABANDONED`` (still open at the cycle cutoff) /
#: ``REJECTED`` (querier offline at admission), or, in service mode, open
#: past its wall deadline.
DEADLINE = "deadline_missed"

#: Closed-loop admission of the cycle-engine workloads: at most this many
#: sessions open, at most this many admitted per eager cycle.
OPEN_LIMIT = 16
ARRIVALS_PER_CYCLE = 8
#: A session still open this many eager cycles after issue is abandoned.
CUTOFF_CYCLES = 60

#: Heterogeneous storage levels of ``eager_longtail`` (Poisson, lambda = 4).
STORAGE_LEVELS = (2, 4, 8, 12, 20, 35, 50)

#: Per-workload sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: only proves every metric is produced (the tier-1 smoke test).
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "lazy_cold": {"users": 600, "lazy_cycles": 6, "queries": 60},
        "eager_longtail": {"users": 600, "queries": 32},
        "mixed_dynamics": {"users": 300, "rounds": 3, "queries_per_round": 16},
        "service_saturated": {
            "users": 100, "clients": 24, "warmup_s": 1.0, "cold_window_s": 1.0, "around_s": 1.2,
        },
    },
    "smoke": {
        "lazy_cold": {"users": 60, "lazy_cycles": 3, "queries": 10},
        "eager_longtail": {"users": 60, "queries": 12},
        "mixed_dynamics": {"users": 60, "rounds": 2, "queries_per_round": 6},
        "service_saturated": {
            "users": 40, "clients": 4, "warmup_s": 0.1, "cold_window_s": 0.2, "around_s": 0.1,
        },
    },
}


@dataclass
class PassResult:
    """Everything one pass measured."""

    #: Build / bootstrap / warm start / runtime start of this pass (set-up;
    #: plain wall seconds, like all of set-up).
    build_s: float
    #: The timed region: gossip, serving and the traffic fold.
    pass_s: float
    #: The same region in plain wall seconds (the tracer's shares refer to it).
    wall_s: float
    #: The query-serving phases inside the timed region.
    serving_s: float
    #: Node-rounds executed in the timed region.
    node_rounds: int
    #: Queries handed to the system; each must settle into one outcome.
    offered: int
    #: query_id -> (outcome, latency in ms or ``None``).
    outcomes: Dict[int, Tuple[str, Optional[float]]]
    #: Latencies (ms) of the completed queries that count for the
    #: percentiles and for ``queries_per_s``.
    latencies_ms: List[float]
    #: Sum of recall@k over the settled queries.
    recall_sum: float
    #: Bytes attributed to queries, and the completed queries they paid for.
    query_bytes: int
    completed: int
    #: All other bytes, and the node-rounds of the whole pass that sent
    #: them (lazy rounds plus remaining-list forwards).
    other_bytes: int
    traffic_rounds: int
    convergence_ratio: float
    bytes_by_kind: Dict[str, int]
    latency_cycles_mean: float
    users_reached_mean: float
    #: Every speed scale applied inside the timed region.
    factors: List[float]
    #: Which arrival order the pass ran (``None``: the reference order).
    order: Optional[int] = None
    #: Digest of messages, bytes by kind and every query's top-k (cycle
    #: engine only: the asyncio runtime does not repeat).
    fingerprint: Optional[str] = None
    #: Wall seconds of the timed region the tracer attributed to a layer.
    attributed_s: float = 0.0
    #: Workload-specific per-layer values (service mode's runtime counters).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures other than query outcomes (invariants, ...).
    violations: List[str] = field(default_factory=list)

    @property
    def recall_mean(self) -> float:
        return self.recall_sum / max(1, len(self.outcomes))


# ----------------------------------------------------------------- helpers


def serve_closed_loop(
    simulation: P3QSimulation, queries: Sequence[Query], watch: speed.Stopwatch
) -> Dict[int, Tuple[str, Optional[float]]]:
    """Admit ``queries`` closed-loop; one eager cycle per step.

    A query is stamped when admitted and again at the end of the eager cycle
    that closed it, on the stopwatch (normalised seconds of the steps in
    between).  The next query enters only when a slot frees up, so a slower
    system is offered less load (closed loop, 16 open, 8 arrivals per step).
    """
    pending = deque(queries)
    open_sessions: Dict[int, Any] = {}
    admitted_at: Dict[int, float] = {}
    outcomes: Dict[int, Tuple[str, Optional[float]]] = {}
    while pending or open_sessions:
        slots = min(ARRIVALS_PER_CYCLE, OPEN_LIMIT - len(open_sessions), len(pending))
        batch = [pending.popleft() for _ in range(slots)]
        admitted = watch.seconds
        with watch:
            sessions = simulation.issue_queries(batch) if batch else {}
            simulation.run_eager(1, stop_when_idle=False)
        for query in batch:
            session = sessions.get(query.query_id)
            if session is None:
                outcomes[query.query_id] = (REJECTED, None)
            else:
                open_sessions[query.query_id] = session
                admitted_at[query.query_id] = admitted
        now = watch.seconds
        cycle = simulation.eager_cycles_run
        for query_id in list(open_sessions):
            session = open_sessions[query_id]
            if session.closed:
                outcomes[query_id] = (COMPLETED, (now - admitted_at[query_id]) * 1e3)
            elif cycle - session.issued_cycle >= CUTOFF_CYCLES:
                outcomes[query_id] = (ABANDONED, None)
            else:
                continue
            del open_sessions[query_id]
    return outcomes


class TracedRegion:
    """Counts taken around the timed region of a traced pass.

    Digest-memo misses come from the cache's own pricing recorder (idle on
    the serial engine) and calls from the tracer, so the hit rate is
    measured where the work happens.
    """

    def __init__(self, simulation: P3QSimulation, tracer) -> None:
        self.tracer = tracer
        self.cache = simulation.digest_cache
        self.misses: list = []
        self.cache.record_pricing(self.misses)
        self.restart()

    def restart(self) -> None:
        """Open the region now (service mode: when the warm-up ends)."""
        self.misses.clear()
        self.probes = self.tracer.calls["gossip.digest.common_items"]
        self.attributed_s = self.tracer.attributed_s

    def stop(self) -> None:
        """Close the region now; the counts freeze."""
        self.cache.record_pricing(None)
        self.attributed_s = self.tracer.attributed_s - self.attributed_s
        probes = self.tracer.calls["gossip.digest.common_items"] - self.probes
        self.hit_ratio = 1.0 - len(self.misses) / probes if probes else 0.0

    def report(self, result: "PassResult") -> None:
        result.attributed_s = self.attributed_s
        result.extra["gossip.digest.cache_hit_ratio"] = self.hit_ratio


def query_stream(
    dataset, count: int, query_id_base: int = 0, offset: int = 0
) -> Tuple[Query, ...]:
    """``count`` long-tail queries in the reference order.

    The queriers are an even sample over the users that have a profile and
    each asks about one of her own items (the paper's personalised workload:
    the tags she gave that item, drawn by the library's generator at its
    default seed).  ``offset`` shifts the sample, so successive streams over
    one corpus ask different users.
    """
    users = [uid for uid in dataset.user_ids if dataset.profile(uid).items]
    count = min(count, len(users))
    generator = QueryWorkloadGenerator(dataset)
    return tuple(
        generator.query_for(
            users[(index * len(users) // count + offset) % len(users)],
            query_id=query_id_base + index,
        )
        for index in range(count)
    )


def shuffled(queries: Sequence[Query], seed) -> Tuple[Query, ...]:
    """The same queries in a seeded arrival order."""
    order = list(queries)
    random.Random(seed).shuffle(order)
    return tuple(order)


def answer_quality(simulation: P3QSimulation, outcomes, references) -> Dict[str, Any]:
    """What the settled queries answered and cost (untimed, after a pass).

    ``references`` maps query id to the reference top-k.  Reads the
    per-query aggregates of the (flushed) stats collector.
    """
    sessions = simulation.sessions()
    stats = simulation.stats
    recall_sum = 0.0
    top_k = []
    latency_cycles = []
    reached = []
    query_bytes = 0
    for query_id in sorted(outcomes):
        session = sessions.get(query_id)
        items = session.current_items() if session is not None else []
        recall_sum += recall(items, references[query_id])
        top_k.append((query_id, tuple(items)))
        query_bytes += sum(stats.query_bytes(query_id).values())
        if session is not None and session.latency_cycles is not None:
            latency_cycles.append(session.latency_cycles)
        reached.append(len(simulation.users_reached(query_id)))
    bytes_by_kind = stats.bytes_by_kind()
    return {
        "recall_sum": recall_sum,
        "top_k": top_k,
        "query_bytes": query_bytes,
        "other_bytes": sum(bytes_by_kind.values()) - query_bytes,
        "bytes_by_kind": bytes_by_kind,
        "latency_cycles_mean": sum(latency_cycles) / max(1, len(latency_cycles)),
        "users_reached_mean": sum(reached) / max(1, len(reached)),
    }


# ---------------------------------------------------------------- workloads


class Workload:
    """Set-up, references and the pass shape; the cycle-engine pass by default."""

    name = ""
    #: Lower bound on ``recall_mean`` (an output check, set per workload).
    recall_floor = 0.0
    #: ``None``: as many passes as fit in ``--seconds`` (never fewer than 3).
    fixed_passes: Optional[int] = None
    #: Passes that ran the same arrival order must produce the same
    #: fingerprint, and the four counts come from the reference-order warm-up
    #: pass (the cycle engine is seeded end to end; the asyncio runtime is not).
    deterministic = True

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.users = self.size["users"]
        self.dataset = None
        self.ideal: Optional[IdealNetworkIndex] = None
        #: query_id -> reference top-k (``CentralizedTopK`` at issue state).
        self.references: Dict[int, List[int]] = {}
        #: Ideal networks of the dataset state at pass end.
        self.final_ideal: Optional[IdealNetworkIndex] = None

    def configure(self, seconds: float) -> None:
        """Adapt to the measuring time (only service mode needs to)."""

    # -- set-up (repeated; its median is part of ``setup_s``) -----------------

    def prepare(self) -> None:
        self.dataset = generate_dataset(SyntheticConfig(num_users=self.users))
        self.ideal = IdealNetworkIndex(self.dataset, size=P3QConfig().network_size)

    # -- references (once) ------------------------------------------------------

    def prepare_references(self) -> None:
        raise NotImplementedError

    def _reference(self, dataset, ideal, queries: Sequence[Query]) -> None:
        centralized = CentralizedTopK(dataset, network_size=ideal.size, ideal=ideal)
        self.references.update(centralized.relevant_items(queries))

    # -- one pass ---------------------------------------------------------------

    def build(self) -> P3QSimulation:
        raise NotImplementedError

    def drive(self, simulation: P3QSimulation, state: Dict[str, Any]) -> None:
        """The timed region: gossip phases (``_gossip``), serving phases (``_serve``)."""
        raise NotImplementedError

    def run_pass(self, order: Optional[int] = None, tracer=None) -> PassResult:
        """One pass; ``order`` picks a seeded arrival order, ``None`` the reference one."""
        start = clock()
        simulation = self.build()
        build_s = clock() - start
        region = TracedRegion(simulation, tracer) if tracer is not None else None
        watch = speed.Stopwatch()
        state: Dict[str, Any] = {
            "watch": watch, "order": order,
            "serving_s": 0.0, "lazy_cycles": 0, "offered": 0, "outcomes": {},
        }
        self.drive(simulation, state)
        # Reading the traffic totals folds the row buffer: part of the job.
        with watch:
            simulation.stats.flush()
        if region is not None:
            region.stop()
        result = self._evaluate(simulation, state, build_s)
        if region is not None:
            region.report(result)
        return result

    def _gossip(self, simulation, cycles: int, state) -> None:
        for _ in range(cycles):
            with state["watch"]:
                simulation.run_lazy(1)
        state["lazy_cycles"] += cycles

    def _serve(self, simulation, queries, state) -> None:
        """Serve one stream, in its reference or a seeded arrival order."""
        watch = state["watch"]
        if state["order"] is not None:
            queries = shuffled(queries, f"{self.seed}/{state['order']}/{state['offered']}")
        start = watch.seconds
        outcomes = serve_closed_loop(simulation, queries, watch)
        state["serving_s"] += watch.seconds - start
        state["offered"] += len(queries)
        overlap = state["outcomes"].keys() & outcomes.keys()
        if overlap:
            raise AssertionError(f"queries settled twice: {sorted(overlap)}")
        state["outcomes"].update(outcomes)

    def _evaluate(self, simulation, state, build_s) -> PassResult:
        outcomes = state["outcomes"]
        watch = state["watch"]
        quality = answer_quality(simulation, outcomes, self.references)
        latencies = [ms for status, ms in outcomes.values() if status == COMPLETED]
        # A lazy cycle is one round of every online node; an eager cycle
        # only of the nodes holding a remaining list, one forward each.
        node_rounds = len(simulation.network.online_ids()) * state[
            "lazy_cycles"
        ] + simulation.stats.total_messages(KIND_REMAINING_FORWARD)
        return PassResult(
            build_s=build_s,
            pass_s=watch.seconds,
            wall_s=watch.wall_s,
            serving_s=state["serving_s"],
            node_rounds=node_rounds,
            offered=state["offered"],
            outcomes=outcomes,
            latencies_ms=latencies,
            recall_sum=quality["recall_sum"],
            query_bytes=quality["query_bytes"],
            completed=len(latencies),
            other_bytes=quality["other_bytes"],
            traffic_rounds=node_rounds,
            convergence_ratio=average_success_ratio(
                self.final_ideal, simulation.discovered_networks()
            ),
            bytes_by_kind=quality["bytes_by_kind"],
            latency_cycles_mean=quality["latency_cycles_mean"],
            users_reached_mean=quality["users_reached_mean"],
            factors=watch.factors,
            order=state["order"],
            fingerprint=hashlib.sha256(
                repr(
                    [
                        simulation.stats.total_messages(),
                        sorted(quality["bytes_by_kind"].items()),
                        quality["top_k"],
                    ]
                ).encode("utf-8")
            ).hexdigest()[:16],
        )


class LazyCold(Workload):
    name = "lazy_cold"
    recall_floor = 0.25

    def prepare_references(self) -> None:
        self.queries = query_stream(self.dataset, self.size["queries"])
        self._reference(self.dataset, self.ideal, self.queries)
        self.final_ideal = self.ideal

    def build(self) -> P3QSimulation:
        simulation = P3QSimulation(self.dataset.copy(), P3QConfig(storage=3))
        simulation.bootstrap_random_views()
        return simulation

    def drive(self, simulation, state) -> None:
        self._gossip(simulation, self.size["lazy_cycles"], state)
        self._serve(simulation, self.queries, state)


class EagerLongtail(Workload):
    name = "eager_longtail"
    recall_floor = 0.99

    def prepare_references(self) -> None:
        self.queries = query_stream(self.dataset, self.size["queries"])
        self._reference(self.dataset, self.ideal, self.queries)
        self.storage = poisson_storage_distribution(
            self.dataset.user_ids, lam=4.0, levels=STORAGE_LEVELS
        )
        self.final_ideal = self.ideal

    def build(self) -> P3QSimulation:
        simulation = P3QSimulation(self.dataset.copy(), P3QConfig(storage=self.storage))
        simulation.warm_start(self.ideal)
        return simulation

    def drive(self, simulation, state) -> None:
        # One maintenance cycle: a live node gossips between queries too.
        self._gossip(simulation, 1, state)
        self._serve(simulation, self.queries, state)


class MixedDynamics(Workload):
    name = "mixed_dynamics"
    recall_floor = 0.85

    def prepare_references(self) -> None:
        # Replay the change days on a scratch corpus: each round's queries
        # and reference answers belong to the corpus state at their issue.
        scratch = self.dataset.copy()
        rounds = self.size["rounds"]
        dynamics = ProfileDynamicsGenerator(
            scratch, DynamicsConfig(change_fraction=0.10, num_days=rounds)
        )
        self.rounds: List[Tuple[Any, Tuple[Query, ...]]] = []
        ideal = self.ideal
        for index in range(rounds):
            day = dynamics.generate_day(index)
            apply_change_day(scratch, day)
            ideal = IdealNetworkIndex(scratch, size=self.ideal.size)
            queries = query_stream(
                scratch, self.size["queries_per_round"],
                query_id_base=index * 10_000, offset=index,
            )
            self._reference(scratch, ideal, queries)
            self.rounds.append((day, queries))
        self.final_ideal = ideal

    def build(self) -> P3QSimulation:
        simulation = P3QSimulation(self.dataset.copy(), P3QConfig(storage=8))
        simulation.warm_start(self.ideal)
        return simulation

    def drive(self, simulation, state) -> None:
        for day, queries in self.rounds:
            with state["watch"]:
                simulation.apply_profile_changes(day)
            self._gossip(simulation, 2, state)
            self._serve(simulation, queries, state)


class SpeedGauge:
    """The box's speed over a stretch of wall time (service mode).

    A coroutine probes the box every ``every_s``; afterwards the mean scale
    over any interval turns its wall seconds into normalised ones.
    """

    every_s = 0.1

    def __init__(self) -> None:
        self.times: List[float] = []
        #: Running sums of the scales: ``sums[i]`` covers ``times[:i]``.
        self.sums: List[float] = [0.0]
        self.busy_s = 0.0

    async def run(self) -> None:
        while True:
            await asyncio.sleep(self.every_s)
            start = clock()
            self.sums.append(self.sums[-1] + speed.factor())
            self.times.append(start)
            self.busy_s += clock() - start

    def factor(self, start: float, end: float) -> float:
        """Mean scale of the probes in ``[start, end]`` (else the nearest one)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high == low:
            low = max(0, min(low, len(self.times) - 1))
            high = low + 1
        return (self.sums[high] - self.sums[low]) / (high - low)


class ServiceSaturated(Workload):
    name = "service_saturated"
    recall_floor = 0.95
    fixed_passes = 3
    deterministic = False
    #: Wall deadline of one query (seconds from issue).
    deadline_s = 5.0
    poll_s = 0.002

    def configure(self, seconds: float) -> None:
        # Three passes share the measuring time; each pays its warm-up and
        # the start, drain, stop and trace audit around the window.
        around = self.size["warmup_s"] + self.size["around_s"]
        self.window_s = max(0.5, seconds / self.fixed_passes - around)

    def prepare_references(self) -> None:
        # One long-tail query per user, in a seeded order; clients walk the
        # pool round-robin and re-issue it under fresh ids when it wraps.
        self.pool = shuffled(query_stream(self.dataset, self.users), self.seed)
        self._reference(self.dataset, self.ideal, self.pool)
        self.final_ideal = self.ideal

    def run_pass(self, order: Optional[int] = None, tracer=None) -> PassResult:
        # The warm-up pass only has to touch every code path once.
        window_s = self.size["cold_window_s"] if order is None else self.window_s
        return asyncio.run(self._run_pass(window_s, tracer))

    async def _start(self) -> Tuple[P3QSimulation, ServiceRuntime]:
        # Storage below the network size, else every query is answered from
        # local replicas and nothing touches the wire.
        simulation = P3QSimulation(self.dataset.copy(), P3QConfig(storage=3))
        simulation.warm_start(self.ideal)
        runtime = ServiceRuntime(simulation)
        await runtime.start()
        return simulation, runtime

    async def _run_pass(self, window_s: float, tracer) -> PassResult:
        loop = asyncio.get_running_loop()
        start = clock()
        simulation, runtime = await self._start()
        build_s = clock() - start

        region = TracedRegion(simulation, tracer) if tracer is not None else None
        #: query_id -> [session, issued (wall), closing future]
        open_queries: Dict[int, list] = {}
        outcomes: Dict[int, Tuple[str, Optional[float]]] = {}
        #: query_id -> (issued, closed), wall clock, of the completed ones.
        closed: Dict[int, Tuple[float, float]] = {}
        pool_index: Dict[int, int] = {}
        ids = itertools.count()
        issuing = True
        gauge = SpeedGauge()
        poller = {"busy_s": 0.0, "lag_s": [], "inbox_max": 0}

        async def client() -> None:
            while issuing:
                query_id = next(ids)
                position = query_id % len(self.pool)
                query = dataclasses.replace(self.pool[position], query_id=query_id)
                pool_index[query_id] = position
                done = loop.create_future()
                open_queries[query_id] = [runtime.issue_query(query), clock(), done]
                await done

        async def poll() -> None:
            inboxes = [runtime.wire.inbox(node_id) for node_id in simulation.nodes]
            tick = 0
            while True:
                before = clock()
                await asyncio.sleep(self.poll_s)
                now = clock()
                poller["lag_s"].append(now - before - self.poll_s)
                for query_id in list(open_queries):
                    session, issued, done = open_queries[query_id]
                    if session.closed:
                        outcomes[query_id] = (COMPLETED, None)
                        closed[query_id] = (issued, now)
                    elif now - issued >= self.deadline_s:
                        outcomes[query_id] = (DEADLINE, None)
                    else:
                        continue
                    del open_queries[query_id]
                    done.set_result(None)
                tick += 1
                if tick % 8 == 0:
                    depth = max(inbox.qsize() for inbox in inboxes)
                    poller["inbox_max"] = max(poller["inbox_max"], depth)
                poller["busy_s"] += clock() - now

        # The benchmark's own coroutines are a layer of the trace too.
        driver = [client] * self.size["clients"] + [poll, gauge.run]
        if tracer is not None:
            driver = [tracer.wrap_resumable("bench.driver", fn, record=False) for fn in driver]
        *clients, poll_task, gauge_task = [asyncio.create_task(fn()) for fn in driver]
        await asyncio.sleep(self.size["warmup_s"])
        window_start = clock()
        rounds_start = runtime.gossip_rounds + runtime.eager_ticks
        if region is not None:
            region.restart()
        lag_start = len(poller["lag_s"])
        await asyncio.sleep(window_s)
        window_end = clock()
        node_rounds = runtime.gossip_rounds + runtime.eager_ticks - rounds_start
        if region is not None:
            region.stop()
        lag_end = len(poller["lag_s"])
        issuing = False
        # Every query in flight settles (closes or misses its deadline).
        await asyncio.gather(*clients)
        for task in (poll_task, gauge_task):
            task.cancel()
        await asyncio.gather(poll_task, gauge_task, return_exceptions=True)
        await runtime.stop()

        violations: List[str] = []
        try:
            check_trace(runtime.trace.events, simulation)
        except InvariantViolation as violation:
            violations.append(f"check_trace: {violation}")

        # Fold the traffic rows first: per-query lookups then read the
        # aggregates instead of scanning every row once per query.
        simulation.stats.flush()
        quality = answer_quality(
            simulation,
            outcomes,
            {
                query_id: self.references[self.pool[position].query_id]
                for query_id, position in pool_index.items()
            },
        )
        for query_id, (issued, at) in closed.items():
            latency = (at - issued) * gauge.factor(issued, at) * 1e3
            outcomes[query_id] = (COMPLETED, latency)
        # Bytes per query over whole walks of the pool only: the same set
        # of queries whatever the seeded order, however many were issued.
        whole = len(pool_index) // len(self.pool) * len(self.pool) or len(pool_index)
        costed = [query_id for query_id in closed if query_id < whole]
        window_scale = gauge.factor(window_start, window_end)
        window = (window_end - window_start) * window_scale
        rpc = list(runtime.rpc_latencies)
        events = runtime.trace.events
        window_lag = poller["lag_s"][lag_start:lag_end]
        result = PassResult(
            build_s=build_s,
            pass_s=window,
            wall_s=window_end - window_start,
            serving_s=window,
            node_rounds=node_rounds,
            offered=len(pool_index),
            outcomes=outcomes,
            latencies_ms=[
                outcomes[query_id][1]
                for query_id, (_issued, at) in closed.items()
                if window_start <= at <= window_end
            ],
            recall_sum=quality["recall_sum"],
            query_bytes=sum(
                sum(simulation.stats.query_bytes(query_id).values()) for query_id in costed
            ),
            completed=len(costed),
            other_bytes=quality["other_bytes"],
            # Idle eager ticks send nothing: count the forwards, as the
            # cycle engine's node-rounds do.
            traffic_rounds=runtime.gossip_rounds
            + simulation.stats.total_messages(KIND_REMAINING_FORWARD),
            convergence_ratio=average_success_ratio(
                self.final_ideal, simulation.discovered_networks()
            ),
            bytes_by_kind=quality["bytes_by_kind"],
            latency_cycles_mean=quality["latency_cycles_mean"],
            users_reached_mean=quality["users_reached_mean"],
            factors=[window_scale],
            extra={
                "bench.poller_busy_s": poller["busy_s"] + gauge.busy_s,
                "service.runtime.loop_lag_p90_ms": percentile(window_lag, 90) * 1e3,
                "service.runtime.inbox_depth_max": poller["inbox_max"],
                "service.runtime.rpc.count": len(rpc),
                "service.runtime.rpc.p50_ms": percentile(rpc, 50) * 1e3,
                "service.runtime.rpc.p95_ms": percentile(rpc, 95) * 1e3,
                "service.runtime.rpc.timeouts": sum(
                    1 for event in events if event.op == OP_REQUEST and event.status == DROPPED
                ),
                "service.trace.events": len(events),
            },
            violations=violations,
        )
        if region is not None:
            region.report(result)
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (LazyCold, EagerLongtail, MixedDynamics, ServiceSaturated)
}
