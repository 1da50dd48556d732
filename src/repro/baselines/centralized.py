"""Centralized network-aware top-k baseline.

This is the reproduction of the reference the paper compares against
(Section 3.2.2): "a top-10 processing in a centralized implementation of our
protocol", itself inspired by the network-aware search of Amer-Yahia et al.
A central server holds every profile and, per querier, the querier's ideal
personal network; the relevance of an item is its aggregated score over that
network.  The results of this engine define recall = 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..data.models import Dataset
from ..data.queries import Query
from ..similarity.knn import IdealNetworkIndex
from ..p3q.scoring import partial_scores
from ..topk.exact import exact_top_k


class CentralizedTopK:
    """Exact personalized top-k over the querier's ideal personal network."""

    def __init__(
        self,
        dataset: Dataset,
        network_size: int,
        ideal: Optional[IdealNetworkIndex] = None,
    ) -> None:
        self.dataset = dataset
        self.network_size = network_size
        self.ideal = ideal or IdealNetworkIndex(dataset, size=network_size)

    def personal_network_of(self, user_id: int) -> List[int]:
        return self.ideal.neighbour_ids(user_id)

    def relevance_scores(self, query: Query) -> Dict[int, float]:
        """``Score(Q, i)`` summed over the querier's ideal personal network.

        The querier's own profile participates as well (her local partial
        result in P3Q always includes it), so the decentralized protocol and
        this reference aggregate exactly the same profile set.
        """
        neighbour_ids = self.personal_network_of(query.querier)
        profiles = [self.dataset.profile(uid) for uid in neighbour_ids]
        profiles.append(self.dataset.profile(query.querier))
        return partial_scores(profiles, query)

    def top_k(self, query: Query, k: int = 10) -> List[Tuple[int, float]]:
        return exact_top_k([self.relevance_scores(query)], k)

    def top_k_items(self, query: Query, k: int = 10) -> List[int]:
        return [item for item, _ in self.top_k(query, k)]

    def relevant_items(self, queries: Sequence[Query], k: int = 10) -> Dict[int, List[int]]:
        """query_id -> the k reference ("relevant") items for each query."""
        return {query.query_id: self.top_k_items(query, k) for query in queries}

