"""Brute-force exact top-k aggregation.

Used as the correctness oracle for the incremental NRA and by the
centralized baseline: simply sum every list's score per item and sort.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple


def merge_score_maps(score_maps: Iterable[Mapping[int, float]]) -> Dict[int, float]:
    """Sum per-item scores across several item -> score maps."""
    totals: Dict[int, float] = defaultdict(float)
    for scores in score_maps:
        for item, score in scores.items():
            totals[item] += score
    return dict(totals)


def exact_top_k(score_maps: Iterable[Mapping[int, float]], k: int) -> List[Tuple[int, float]]:
    """Exact top-k by summed score; deterministic tie-break on item id."""
    if k <= 0:
        raise ValueError("k must be positive")
    totals = merge_score_maps(score_maps)
    ranked = sorted(
        ((item, score) for item, score in totals.items() if score > 0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]

