"""What the closed-loop serving paths share.

Query serving runs in two places: ``serve_closed_loop`` in
``benchmarks/e2e/workloads.py`` (the cycle-engine workloads the benchmark
gates) and the asyncio service runtime (:mod:`repro.service`).  The
``fig-serving`` experiment tabulates the coverage-versus-latency
trade-off.  This package holds only the names they share: the three
outcome states and :func:`percentile` (:mod:`~repro.serving.driver`), and
:func:`peak_rss_bytes` (:mod:`~repro.serving.resources`).  The benchmark
imports both modules by path, so the paths stay.
"""

from .driver import ABANDONED, COMPLETED, REJECTED, percentile
from .resources import peak_rss_bytes

__all__ = [
    "ABANDONED",
    "COMPLETED",
    "REJECTED",
    "percentile",
    "peak_rss_bytes",
]
