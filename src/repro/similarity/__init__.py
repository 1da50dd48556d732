"""Profile similarity metrics and exact (offline) nearest-neighbour indexes.

All metrics score on interned profile views (dense action-id sets cached per
profile version) -- see :mod:`repro.data.interning` and
``docs/ARCHITECTURE.md`` for the design, and
``tests/test_similarity_interning.py`` for the equivalence guarantees.
"""

from .metrics import (
    SIMILARITY_METRICS,
    SimilarityFunction,
    common_actions,
    cosine_score,
    get_metric,
    item_overlap_score,
    jaccard_score,
    overlap_score,
    overlap_score_from_actions,
)
from .knn import IdealNetworkIndex, Neighbour

__all__ = [
    "SIMILARITY_METRICS",
    "IdealNetworkIndex",
    "Neighbour",
    "SimilarityFunction",
    "common_actions",
    "cosine_score",
    "get_metric",
    "item_overlap_score",
    "jaccard_score",
    "overlap_score",
    "overlap_score_from_actions",
]
