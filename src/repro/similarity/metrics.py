"""Similarity metrics between tagging profiles.

The paper's score between two users is the number of common tagging actions:

    Score_{u_i}(u_j) = |Profile(u_i) ∩ Profile(u_j)|
                     = |{(i, t) | Tagged_{u_i}(i, t) ∧ Tagged_{u_j}(i, t)}|

The score takes both topic (tag) and object (item) preferences into account.
P3Q itself is independent of the metric ("this distance is
application-specific"), so the module also provides Jaccard and cosine
variants that plug into the same protocol machinery.

Scoring is one of the two hottest paths of the simulator (the other is the
Bloom digest probe), so every metric runs on the *interned* profile views:
``UserProfile.action_ids`` / ``UserProfile.items`` are per-version cached
frozensets of small ints (see :mod:`repro.data.interning` and
``docs/ARCHITECTURE.md``), and each score is a single C-level set
intersection instead of a Python-loop over tuple sets.  The observable
scores are identical to the naive tuple-set definition; the equivalence is
property-tested in ``tests/test_similarity_interning.py``.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable, Dict, FrozenSet, Hashable, Iterable

from ..data.models import TaggingAction, UserProfile

#: A similarity function maps two profiles to a non-negative number where
#: larger means more similar.
SimilarityFunction = Callable[[UserProfile, UserProfile], float]


def common_actions(a: UserProfile, b: UserProfile) -> FrozenSet[TaggingAction]:
    """The intersection of two profiles' tagging-action sets."""
    return a.actions & b.actions


def overlap_score(a: UserProfile, b: UserProfile) -> float:
    """The paper's metric: number of common tagging actions."""
    return float(len(a.action_ids & b.action_ids))


def overlap_score_from_actions(
    local_actions: AbstractSet[Hashable],
    remote_actions: Iterable[Hashable],
) -> float:
    """Overlap of the local action set with the actions a peer sent.

    This is the form used during the lazy 3-step exchange where the remote
    side only sent the tagging actions for the *common items*; intersecting
    with the local actions yields exactly the same score as intersecting full
    profiles would.  Both sides speak one vocabulary -- interned action ids
    on the wire, ``(item, tag)`` tuples in the reference tests -- and
    ``remote_actions`` is any iterable without repeats: the step-2 reply is
    a flat ascending tuple (:meth:`UserProfile.action_ids_for_items`),
    scored by one C-level ``intersection`` that builds no set of it.
    """
    if not isinstance(local_actions, (set, frozenset)):
        local_actions = set(local_actions)
    return float(len(local_actions.intersection(remote_actions)))


def jaccard_score(a: UserProfile, b: UserProfile) -> float:
    """|A ∩ B| / |A ∪ B| over tagging actions (alternative metric)."""
    inter = len(a.action_ids & b.action_ids)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def cosine_score(a: UserProfile, b: UserProfile) -> float:
    """Cosine similarity over binary tagging-action vectors."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    inter = len(a.action_ids & b.action_ids)
    return inter / math.sqrt(len(a) * len(b))


def item_overlap_score(a: UserProfile, b: UserProfile) -> float:
    """Number of common *items* (the digest-level approximation)."""
    return float(len(a.items & b.items))


#: Registry of named metrics so experiments/configs can select one by name.
SIMILARITY_METRICS: Dict[str, SimilarityFunction] = {
    "overlap": overlap_score,
    "jaccard": jaccard_score,
    "cosine": cosine_score,
    "item_overlap": item_overlap_score,
}


def get_metric(name: str) -> SimilarityFunction:
    """Look a metric up by name, raising a helpful error for typos."""
    try:
        return SIMILARITY_METRICS[name]
    except KeyError:
        known = ", ".join(sorted(SIMILARITY_METRICS))
        raise KeyError(f"unknown similarity metric {name!r}; known metrics: {known}") from None
