"""Relevance scoring for personalized top-k queries.

For a query ``Q = {u_i, t_1..t_n}``:

* the score of an item ``i`` for one user ``u_j`` is the number of tags of
  ``Q`` that ``u_j`` used to annotate ``i``:
  ``Score_{u_j,Q}(i) = |{t_m ∈ Q | Tagged_{u_j}(i, t_m)}|``;
* the overall relevance of ``i`` for the querier is the sum of that
  per-user score over every neighbour of the querier's personal network;
* a *partial* relevance score is the same sum restricted to the profiles a
  given node stores and that should contribute to the query
  (``GoodProfiles`` in the paper).

Any monotonic aggregation could replace the sum without touching the rest of
the protocol; the sum is what the paper evaluates.

Scoring walks the profile's maintained tag -> items index
(``UserProfile.items_for_tag``) instead of scanning every tagging action:
a query carries a handful of tags, while paper-scale profiles hold hundreds
of actions, so the index walk touches only the actions that can contribute.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable

from ..data.models import UserProfile
from ..data.queries import Query


def partial_scores(profiles: Iterable[UserProfile], query: Query) -> Dict[int, float]:
    """Partial relevance scores summed over a set of profiles.

    This is what one node contributes to the collaborative computation: the
    sum of per-user scores over its ``GoodProfiles`` set, keeping only items
    with a positive partial score.

    The whole profile batch is priced in a single accumulation pass: per
    profile and query tag, one walk of the interned ``tag -> items`` index
    straight into the shared totals -- no per-profile score dict is ever
    materialized.  Scores are small integer counts, so float accumulation is
    exact and order-independent; the result is identical to summing each
    profile's per-user scores.
    """
    tags = set(query.tags)
    totals: Dict[int, float] = defaultdict(float)
    for profile in profiles:
        for tag in tags:
            for item in profile.items_for_tag(tag):
                totals[item] += 1.0
    return {item: score for item, score in totals.items() if score > 0}

