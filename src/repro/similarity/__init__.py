"""Profile similarity metrics and the exact (offline) ideal-network index.

All metrics score on interned profile views (dense action-id sets cached per
profile version) -- see :mod:`repro.data.interning` and
``docs/ARCHITECTURE.md`` for the design, and
``tests/test_similarity_interning.py`` for the equivalence guarantees.
"""

from .metrics import cosine_score, jaccard_score, overlap_score, overlap_score_from_actions
from .knn import IdealNetworkIndex

__all__ = [
    "IdealNetworkIndex",
    "cosine_score",
    "jaccard_score",
    "overlap_score",
    "overlap_score_from_actions",
]
