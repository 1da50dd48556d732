"""Output checks: a run whose answers are wrong has no valid timings.

Every check returns human-readable failure lines (empty when it passes);
the runner fails the command when any line comes back.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from .workloads import COMPLETED, PassResult


def failed_queries(passes: Sequence[PassResult]) -> int:
    """Attempted queries that did not complete (abandoned, rejected, late)."""
    return sum(
        1
        for result in passes
        for status, _latency in result.outcomes.values()
        if status != COMPLETED
    )


def check_passes(workload, passes: Sequence[PassResult]) -> List[str]:
    """The per-workload output checks over every pass of one run."""
    problems: List[str] = []
    for index, result in enumerate(passes):
        problems.extend(f"pass {index}: {line}" for line in result.violations)
        if len(result.outcomes) != result.offered or not result.offered:
            problems.append(
                f"pass {index}: {result.offered} queries offered, "
                f"{len(result.outcomes)} settled into an outcome"
            )
        if result.recall_mean < workload.recall_floor:
            problems.append(
                f"pass {index}: recall_mean {result.recall_mean:.4f} is below the "
                f"{workload.name} floor {workload.recall_floor}"
            )
    if workload.deterministic:
        by_order: Dict[Optional[int], set] = defaultdict(set)
        for result in passes:
            by_order[result.order].add(result.fingerprint)
        for order, fingerprints in by_order.items():
            if len(fingerprints) > 1:
                problems.append(
                    f"cycle-engine passes of arrival order {order} disagree on messages, "
                    f"bytes by kind or per-query top-k: fingerprints {sorted(fingerprints)}"
                )
    return problems
