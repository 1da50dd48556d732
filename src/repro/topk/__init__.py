"""Top-k query processing machinery: incremental NRA and the exact oracle."""

from .heap import Candidate, CandidateHeap
from .nra import RankedList
from .incremental import IncrementalNRA
from .exact import exact_top_k, merge_score_maps

__all__ = [
    "Candidate",
    "CandidateHeap",
    "IncrementalNRA",
    "RankedList",
    "exact_top_k",
    "merge_score_maps",
]
