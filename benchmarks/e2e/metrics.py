"""``BENCHMARK.json`` is the metric catalogue; this module reads it.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
checkout root and nowhere else.  The runner learns from it which layers to
report as ``<layer>.calls`` / ``<layer>.self_s`` pairs and which traffic
kinds to break the bytes down by.  Importing this module imports nothing of
the library, so the parent process can format a report without paying the
library's import.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

from . import ROOT

BYTES_BY_KIND = "simulator.stats.bytes_by_kind."


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(contract: dict) -> List[str]:
    return [workload["name"] for workload in contract["workloads"]]


def units(contract: dict, family: str) -> Dict[str, str]:
    """name -> unit of ``end_to_end`` or ``per_layer``, in report order."""
    return {metric["name"]: metric["unit"] for metric in contract[family]}


def span_layers(contract: dict) -> List[str]:
    """The layers reported as a ``.calls`` / ``.self_s`` pair."""
    suffix = ".self_s"
    return [name[: -len(suffix)] for name in units(contract, "per_layer") if name.endswith(suffix)]


def traffic_kinds(contract: dict) -> List[str]:
    return [
        name[len(BYTES_BY_KIND):]
        for name in units(contract, "per_layer")
        if name.startswith(BYTES_BY_KIND)
    ]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0
