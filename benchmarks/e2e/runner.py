"""One workload, one process: set-up, a warm-up pass, timed passes, a report.

This module runs inside the fresh child that ``python -m benchmarks.e2e``
spawns per workload (``PYTHONHASHSEED=0``), so the peak RSS, the hash order
and the library's process-wide Bloom probe caches never leak from one
workload into the next.

Run shape: set-up (repeated, its median counts), references, one untimed
warm-up pass in the reference arrival order (the four counts of a
cycle-engine workload are read from it), then timed passes in the seeded
orders -- each on a fresh simulation, ``gc.collect()`` before each -- until
``--seconds`` is used up.  Every second of a pass is box-normalised
(:mod:`.speed`); set-up is plain wall-clock.
A rate's run value is the median of its per-pass values; the latency
percentiles pool the samples of all timed passes.  With ``--trace`` the last
pass runs under the tracer and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.serving.driver import percentile
from repro.serving.resources import peak_rss_bytes

from . import checks, metrics, speed
from .tracer import Tracer, install
from .workloads import WORKLOADS, PassResult

clock = time.perf_counter

#: How many times set-up (corpus + ideal index) is repeated for its median.
SETUP_REPEATS = 3
#: Arrival orders a run draws from its seed; the timed passes take them in
#: turn, so the percentiles pool several schedules.
ORDERS = 4
#: Never report from fewer timed passes than this (one more than ``ORDERS``,
#: so at least one order runs twice and the repeat check has a pair).
MIN_PASSES = ORDERS + 1
#: A box whose speed moved by more than this during the run is ``noisy``.
NOISY_DRIFT = 0.25


def wall(fn) -> float:
    """Wall seconds of one call."""
    start = clock()
    fn()
    return clock() - start


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    import_s: float,
    trace_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the child's report.

    ``import_s`` is the wall time from child start to this call.
    """
    contract = metrics.load_contract()
    workload = WORKLOADS[name](seed, scale)
    workload.configure(seconds)
    tracer = Tracer() if trace else None

    uninstall = install(tracer) if tracer is not None else None
    # Set-up is plain wall-clock: its pieces are too short and leave the
    # caches too different for the speed probe (normalising them made the
    # run-to-run spread of ``setup_s`` 1.5-2x wider, not narrower).
    setup_times = [wall(workload.prepare) for _ in range(SETUP_REPEATS)]
    if uninstall is not None:
        uninstall()
    ready_s = import_s + statistics.median(setup_times) + wall(workload.prepare_references)

    gc.collect()
    start = clock()
    cold = workload.run_pass()
    cold_pass_s = clock() - start

    # The traced pass takes its share of the measuring time.
    budget = seconds / 2 if trace else seconds
    passes: List[PassResult] = []
    pass_walls: List[float] = []
    started = clock()
    while True:
        done = len(passes)
        if workload.fixed_passes is not None:
            if done >= workload.fixed_passes - (1 if trace else 0):
                break
        elif done >= MIN_PASSES:
            if clock() - started + statistics.median(pass_walls) > budget:
                break
        gc.collect()
        start = clock()
        passes.append(workload.run_pass(order=done % ORDERS))
        pass_walls.append(clock() - start)

    traced: Optional[PassResult] = None
    if tracer is not None:
        uninstall = install(tracer)
        gc.collect()
        try:
            traced = workload.run_pass(order=0, tracer=tracer)
        finally:
            uninstall()
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            tracer.dump(os.path.join(trace_dir, f"trace-{name}.jsonl"))
    # How far the box's speed moved between the first and the last pass.
    first, last = (statistics.median(result.factors) for result in (passes[0], passes[-1]))
    drift = abs(last / first - 1.0)

    checked = [cold] + passes + ([traced] if traced is not None else [])
    problems = checks.check_passes(workload, checked)
    failed = checks.failed_queries(checked) + len(problems)

    # The cycle engine repeats exactly, so its counts are read once, on the
    # reference order; the asyncio runtime does not, so its are pooled.
    untraced = summarize(passes, [cold] if workload.deterministic else passes, ready_s)
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(result.offered for result in checked),
        "failed": failed,
        "passes": len(passes),
        "latency_samples": sum(len(result.latencies_ms) for result in passes),
        "noisy": drift > NOISY_DRIFT,
        "untraced": untraced,
    }
    if traced is not None:
        speed_factor = statistics.median(scale for result in passes for scale in result.factors)
        bench = {
            "bench.calib_ops_per_s": speed_factor * speed.STEPS / speed.REFERENCE_S,
            "bench.calib_drift": drift,
            "bench.speed_factor": speed_factor,
            "bench.cold_pass_s": cold_pass_s,
            "bench.pass_s_iqr": metrics.spread([result.pass_s for result in passes]),
            "bench.trace_overhead": untraced["rounds_per_s"] / rate(traced) - 1.0,
            "bench.unattributed_share": 1.0 - traced.attributed_s / traced.wall_s,
        }
        report["per_layer"] = layer_metrics(contract, tracer, traced, {**untraced, **bench})
    return report


def rate(result: PassResult) -> float:
    """Node-rounds per second of one pass's timed region."""
    return result.node_rounds / result.pass_s


def summarize(
    passes: Sequence[PassResult], counted: Sequence[PassResult], ready_s: float
) -> Dict[str, float]:
    """What the untraced passes of one run measured.

    ``BENCHMARK.json`` bounds six of these as end-to-end metrics; the four
    speeds are listed per-layer there (README, "Bounds") and reported with
    the traced run.

    ``ready_s`` is the set-up before the first pass (import, corpus and
    ideal index, references); the median per-pass build is added to it.
    ``counted`` are the passes the four counts are read from.
    """
    latencies = [ms for result in passes for ms in result.latencies_ms]
    return {
        "setup_s": ready_s + statistics.median(result.build_s for result in passes),
        "rounds_per_s": statistics.median(rate(result) for result in passes),
        "queries_per_s": statistics.median(
            len(result.latencies_ms) / result.serving_s for result in passes
        ),
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": (peak_rss_bytes() or 0) / 1e6,
        "recall_mean": sum(result.recall_sum for result in counted)
        / sum(len(result.outcomes) for result in counted),
        "wire_kb_per_query": sum(result.query_bytes for result in counted)
        / sum(result.completed for result in counted) / 1e3,
        "gossip_kb_per_round": sum(result.other_bytes for result in counted)
        / sum(result.traffic_rounds for result in counted) / 1e3,
        "convergence_ratio": statistics.fmean(result.convergence_ratio for result in counted),
    }


def layer_metrics(
    contract: dict, tracer: Tracer, traced: PassResult, bench: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric: the traced pass's (0 where a layer was idle)
    plus ``bench``, the values that describe the run and its untraced passes."""
    counters = tracer.counters
    calls = tracer.calls
    values: Dict[str, float] = {}
    for layer in metrics.span_layers(contract):
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    considered = calls.get("gossip.views.consider", 0)
    delivered = calls.get("simulator.transport.deliver", 0)
    dropped = counters.get("simulator.transport.deliver.dropped", 0)
    writes = calls.get("service.runtime.wire.send", 0)
    lag = tracer.samples.get("service.runtime.wheel.timer_lag_s", ())
    values.update(
        {
            "gossip.digest.evictions": counters.get("gossip.digest.evictions", 0),
            "gossip.views.consider.accept_ratio": (
                counters.get("gossip.views.consider.accepted", 0) / considered
                if considered
                else 0.0
            ),
            "topk.incremental.sequential_accesses": sum(
                tracer.gauges["topk.incremental.sequential_accesses"].values()
            ),
            "simulator.transport.deliver.messages": delivered - dropped,
            "simulator.transport.deliver.dropped": dropped,
            "p3q.query.latency_cycles_mean": traced.latency_cycles_mean,
            "p3q.query.users_reached_mean": traced.users_reached_mean,
            "service.codec.encode.bytes": counters.get("service.codec.encode.bytes", 0),
            "service.runtime.batcher.frames_per_write": (
                counters.get("service.runtime.batcher.frames", 0) / writes if writes else 0.0
            ),
            "service.runtime.wire.send.refused": counters.get(
                "service.runtime.wire.send.refused", 0
            ),
            "service.runtime.wheel.timer_lag_p50_ms": percentile(lag, 50) * 1e3,
            "service.runtime.wheel.timer_lag_p90_ms": percentile(lag, 90) * 1e3,
        }
    )
    for kind in metrics.traffic_kinds(contract):
        values[metrics.BYTES_BY_KIND + kind] = traced.bytes_by_kind.get(kind, 0)
    values.update(bench)
    values.update(traced.extra)
    # Layers a workload never enters report 0, not a missing key.
    return {name: float(values.get(name, 0.0)) for name in metrics.units(contract, "per_layer")}
