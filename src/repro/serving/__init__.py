"""Query-serving library.

Layers a serving driver on the cycle simulator: a workload catalogue
(:mod:`~repro.serving.workloads`), a driver injecting queries at
configurable concurrency and arrival rates (:mod:`~repro.serving.driver`),
and the process resource probes the benchmarks share
(:mod:`~repro.serving.resources`).  ``python -m repro serving`` runs one
workload, ``fig-serving`` tabulates the catalogue in cycle counts, and the
``benchmarks/e2e`` workloads are where serving wall-clock performance is
measured and gated.
"""

from .driver import (
    ABANDONED,
    COMPLETED,
    REJECTED,
    QueryOutcome,
    ServingConfig,
    ServingResult,
    percentile,
    run_serving,
)
from .resources import ResourceEnvelope, ResourceProbe, cpu_seconds, peak_rss_bytes
from .workloads import (
    WORKLOADS,
    ServingWorkload,
    build_workload,
    hot_topic_workload,
    long_tail_workload,
    mixed_workload,
)

__all__ = [
    "ABANDONED",
    "COMPLETED",
    "REJECTED",
    "QueryOutcome",
    "ServingConfig",
    "ServingResult",
    "percentile",
    "run_serving",
    "ResourceEnvelope",
    "ResourceProbe",
    "cpu_seconds",
    "peak_rss_bytes",
    "WORKLOADS",
    "ServingWorkload",
    "build_workload",
    "hot_topic_workload",
    "long_tail_workload",
    "mixed_workload",
]
