"""End-to-end benchmark of the P3Q reproduction (``BENCHMARK.json``).

Four workloads (``lazy_cold``, ``eager_longtail``, ``mixed_dynamics``,
``service_saturated``), each run in a fresh child process, ten end-to-end
metrics, and a traced run that attributes the time to the library's layers.
See ``README.md`` in this directory; run with ``python -m benchmarks.e2e``.

The package only calls the library's public entry points with
workload-shaping inputs (sizes, seeds, client counts): every engine,
executor, transport, codec and timer knob stays at the library default, so
a later change of a default is measured.
"""

import os
import sys

#: The checkout root (``benchmarks/e2e`` sits two levels below it).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bootstrap_path() -> None:
    """Make ``repro`` importable from a bare checkout (no install step)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
