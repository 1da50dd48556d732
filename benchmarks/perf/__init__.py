"""Performance-tracking benchmark harness (micro + macro).

Usage (from the repository root)::

    PYTHONPATH=src python -m repro perf                 # full run, writes BENCH_p3q.json
    PYTHONPATH=src python -m repro perf --quick         # CI smoke run on a tiny network
    PYTHONPATH=src python -m repro perf --validate BENCH_p3q.json
    PYTHONPATH=src python -m repro perf --compare /tmp/BENCH_now.json --against BENCH_p3q.json
    PYTHONPATH=src python -m repro perf --scale --profile  # adds N=5000/10000 + phase timings
    PYTHONPATH=src python -m repro perf --scale-smoke 10000 --budget-seconds 120

The harness measures the two hot paths the performance layer optimizes --
Bloom-digest operations and similarity scoring -- against their seed
(pre-optimization) baselines, plus end-to-end simulator cycles/sec at
several network sizes, and persists everything to ``BENCH_p3q.json`` so the
repository's performance trajectory is tracked PR over PR.
"""

from .harness import (
    DEFAULT_REPORT_NAME,
    SCALE_MACRO_SIZES,
    SCHEMA_VERSION,
    bench_digest,
    bench_macro,
    bench_scale_smoke,
    bench_similarity,
    compare_reports,
    main,
    run_suite,
    validate_report,
    write_report,
)

__all__ = [
    "DEFAULT_REPORT_NAME",
    "SCALE_MACRO_SIZES",
    "SCHEMA_VERSION",
    "bench_digest",
    "bench_macro",
    "bench_scale_smoke",
    "bench_similarity",
    "compare_reports",
    "main",
    "run_suite",
    "validate_report",
    "write_report",
]
