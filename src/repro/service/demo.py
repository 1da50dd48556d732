"""The service-mode demo: a live P3Q deployment answering real queries.

Builds a warm-started simulation the same way the figure experiments do
(:func:`repro.experiments.runner.converged_simulation`), hands it to a
:class:`~repro.service.runtime.ServiceRuntime`, issues a query workload
with per-query deadlines, audits the recorded wire trace with the simtest
invariant checkers and reports recall against the centralized references
plus bytes on the wire.  Three callers share it:

* ``python -m repro service --demo``;
* the ``fig-service`` experiment;
* the CI ``service-smoke`` job (``--smoke`` asserts at least one query
  completed, the run recorded wire events and the invariants passed,
  exiting nonzero otherwise).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Dict, List, Optional

from ..experiments.runner import PreparedWorkload, converged_simulation, prepare_workload
from ..experiments.scenarios import ExperimentScale
from ..metrics.recall import recall
from ..serving.driver import percentile
from .runtime import ServiceConfig, ServiceRuntime

#: Demo defaults: big enough to gossip meaningfully, small enough for CI.
#: Storage must sit *below* the personal-network size, else every query is
#: answered from the querier's own replicas and nothing touches the wire.
DEFAULT_NUM_USERS = 50
DEFAULT_NUM_QUERIES = 8
DEFAULT_STORAGE = 3


def build_demo_workload(
    num_users: int = DEFAULT_NUM_USERS,
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 42,
) -> PreparedWorkload:
    """A tiny-scale workload resized to ``num_users`` service nodes."""
    base = ExperimentScale.tiny(seed=seed)
    scale = replace(
        base,
        num_users=num_users,
        network_size=min(base.network_size, max(2, num_users - 1)),
        num_queries=min(num_queries, num_users),
    )
    return prepare_workload(scale)


async def run_demo(
    num_users: int = DEFAULT_NUM_USERS,
    num_queries: int = DEFAULT_NUM_QUERIES,
    seed: int = 42,
    wire: str = "inproc",
    deadline: Optional[float] = None,
    storage: int = DEFAULT_STORAGE,
    service_config: Optional[ServiceConfig] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """One live service run; returns the report dict (see keys below).

    The trace is dumped to ``trace_path`` (when given) *before* the
    invariant audit, so a failing run still leaves the evidence on disk --
    the CI smoke job uploads it as an artifact.  An invariant violation is
    reported in ``invariant_error`` rather than raised, for the same
    reason: the caller decides whether to abort.
    """
    from ..simtest.invariants import InvariantViolation
    from .trace import check_trace

    workload = build_demo_workload(num_users=num_users, num_queries=num_queries, seed=seed)
    simulation = converged_simulation(workload, storage)
    config = service_config if service_config is not None else ServiceConfig(wire=wire)
    runtime = ServiceRuntime(simulation, config)
    loop = asyncio.get_running_loop()
    started = loop.time()
    await runtime.start()
    try:
        sessions = await runtime.run_queries(workload.queries, deadline=deadline)
    finally:
        await runtime.stop()
    wall = loop.time() - started
    rpc_p95_ms = percentile(runtime.rpc_latencies, 95) * 1e3

    if trace_path is not None:
        runtime.trace.dump(trace_path)

    invariants: List[str] = []
    invariant_error: Optional[str] = None
    try:
        invariants = check_trace(runtime.trace.events, simulation)
    except InvariantViolation as violation:
        invariant_error = str(violation)

    per_query = []
    for query in workload.queries:
        session = sessions[query.query_id]
        items = session.current_items()
        per_query.append(
            {
                "query_id": query.query_id,
                "querier": query.querier,
                "closed": session.closed,
                "coverage": session.coverage,
                "recall": recall(items, workload.references.get(query.query_id, [])),
            }
        )
    completed = sum(1 for row in per_query if row["closed"])
    stats = simulation.stats
    return {
        "num_users": num_users,
        "num_queries": len(per_query),
        "wire": config.wire,
        "seed": seed,
        "wall_seconds": wall,
        "gossip_rounds": runtime.gossip_rounds,
        "eager_ticks": runtime.eager_ticks,
        "rounds_per_sec": runtime.gossip_rounds / wall if wall > 0 else 0.0,
        "rpc_count": len(runtime.rpc_latencies),
        "rpc_p95_ms": rpc_p95_ms,
        "completed": completed,
        "mean_recall": (
            sum(row["recall"] for row in per_query) / len(per_query) if per_query else 0.0
        ),
        "mean_coverage": (
            sum(row["coverage"] for row in per_query) / len(per_query) if per_query else 0.0
        ),
        "queries": per_query,
        "bytes_total": stats.total_bytes(),
        "bytes_by_kind": stats.bytes_by_kind(),
        "wire_events": len(runtime.trace.events),
        "invariants": invariants,
        "invariant_error": invariant_error,
    }


def run_demo_sync(**kwargs: Any) -> Dict[str, Any]:
    """:func:`run_demo` from synchronous code (the CLI, experiments)."""
    return asyncio.run(run_demo(**kwargs))


def format_report(report: Dict[str, Any]) -> str:
    """The human-readable demo summary printed by ``--demo``."""
    lines = [
        f"service demo: {report['num_users']} nodes over the "
        f"{report['wire']} wire (seed {report['seed']})",
        f"  queries completed: {report['completed']}/{report['num_queries']}",
        f"  gossip rounds: {report.get('gossip_rounds', 0)} "
        f"({report.get('rounds_per_sec', 0.0):.1f}/s), "
        f"rpc p95 {report.get('rpc_p95_ms', 0.0):.2f} ms",
        f"  mean recall vs centralized reference: {report['mean_recall']:.3f}",
        f"  mean coverage: {report['mean_coverage']:.3f}",
        f"  bytes on the wire: {report['bytes_total']}",
    ]
    for kind, amount in sorted(report["bytes_by_kind"].items()):
        lines.append(f"    {kind}: {amount}")
    lines.append(f"  wire events recorded: {report['wire_events']}")
    if report["invariant_error"] is not None:
        lines.append(f"  INVARIANT VIOLATION: {report['invariant_error']}")
    else:
        lines.append(
            "  invariants passed: " + ", ".join(report["invariants"])
        )
    return "\n".join(lines)


def demo_succeeded(report: Dict[str, Any]) -> bool:
    """The smoke criterion: at least one completed query, at least one wire
    event, clean invariants.

    A run that never touched the wire (storage at or above the
    personal-network size answers every query from local replicas) proves
    nothing about the service, so it does not pass.
    """
    return (
        report["completed"] >= 1
        and report["wire_events"] > 0
        and report["invariant_error"] is None
    )
