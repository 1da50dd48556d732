"""Query generation from tagging profiles.

The paper's workload (Section 3.1.1): each user processes exactly one query.
One item is picked at random from the user's profile, and the query is the
set of tags that user used to annotate that item -- under the assumption that
the tags a user attached to an item are precisely those she would use to
search for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .models import Dataset


@dataclass(frozen=True)
class Query:
    """A personalized top-k query: ``Q = {u_i, t_1, ..., t_n}``."""

    query_id: int
    querier: int
    tags: Tuple[int, ...]
    #: The item the tags were drawn from; kept for analysis only (the
    #: protocol never sees it).
    source_item: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tags:
            raise ValueError("a query must contain at least one tag")


class QueryWorkloadGenerator:
    """Generate the paper's one-query-per-user workload."""

    def __init__(self, dataset: Dataset, seed: int = 13) -> None:
        self.dataset = dataset
        self._rng = random.Random(seed)

    def query_for(self, user_id: int, query_id: Optional[int] = None) -> Optional[Query]:
        """Generate a query for one user, or ``None`` for an empty profile."""
        profile = self.dataset.profile(user_id)
        items = sorted(profile.items)
        if not items:
            return None
        item = self._rng.choice(items)
        tags = tuple(sorted(profile.tags_for(item)))
        return Query(
            query_id=user_id if query_id is None else query_id,
            querier=user_id,
            tags=tags,
            source_item=item,
        )

    def generate(self, user_ids: Optional[Sequence[int]] = None) -> List[Query]:
        """One query per user (users with empty profiles are skipped)."""
        ids = list(user_ids) if user_ids is not None else self.dataset.user_ids
        queries: List[Query] = []
        for user_id in ids:
            query = self.query_for(user_id, query_id=len(queries))
            if query is not None:
                queries.append(query)
        return queries

