"""Experiment scenarios: dataset scales and storage distributions.

The paper evaluates P3Q under

* seven **uniform** storage scenarios (every user stores c profiles,
  c ∈ {10, 20, 50, 100, 200, 500, 1000});
* two **heterogeneous** scenarios where the storage budget follows a Poisson
  distribution over those seven levels (Table 1): λ=1 models a network of
  storage-poor devices, λ=4 a network where most users have ample storage.

This module generates those distributions for any user population, and
provides the scaled-down experiment sizes used by default so the
reproduction runs in seconds rather than hours (every runner accepts a
custom :class:`ExperimentScale` to go back to paper scale).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..data.models import Dataset
from ..data.synthetic import SyntheticConfig, generate_dataset

#: The paper's seven storage levels (Table 1 columns).
PAPER_STORAGE_LEVELS: Tuple[int, ...] = (10, 20, 50, 100, 200, 500, 1000)


def poisson_pmf(lam: float, k: int) -> float:
    """P(X = k) for a Poisson(λ) variable."""
    return math.exp(-lam) * lam ** k / math.factorial(k)


def storage_level_probabilities(lam: float, num_levels: int = 7) -> List[float]:
    """Probability of each storage level under the paper's Poisson mapping.

    Level ``i`` (0-based) gets the *truncated and renormalized* Poisson mass
    ``P(X = i) / P(X < num_levels)``.  This reproduces Table 1 exactly:
    36.79% / 36.79% / 18.39% / ... for λ=1 and 2.06% / 8.25% / ... / 11.73%
    for λ=4 (the λ=4 row only matches with renormalization, which is how the
    paper handles the truncated tail).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    raw = [poisson_pmf(lam, k) for k in range(num_levels)]
    total = sum(raw)
    return [value / total for value in raw]


def poisson_storage_distribution(
    user_ids: Sequence[int],
    lam: float,
    levels: Sequence[int] = PAPER_STORAGE_LEVELS,
    seed: int = 0,
) -> Dict[int, int]:
    """Assign a storage level to every user following Table 1's distribution."""
    rng = random.Random(seed)
    probabilities = storage_level_probabilities(lam, num_levels=len(levels))
    assignment: Dict[int, int] = {}
    for user_id in user_ids:
        draw = rng.random()
        cumulative = 0.0
        chosen = levels[-1]
        for level, probability in zip(levels, probabilities):
            cumulative += probability
            if draw <= cumulative:
                chosen = level
                break
        assignment[user_id] = chosen
    return assignment


def storage_level_fractions(
    assignment: Mapping[int, int],
    levels: Sequence[int] = PAPER_STORAGE_LEVELS,
) -> Dict[int, float]:
    """Observed fraction of users at each storage level (Table 1 rows)."""
    total = len(assignment)
    if total == 0:
        return {level: 0.0 for level in levels}
    counts = {level: 0 for level in levels}
    for value in assignment.values():
        if value in counts:
            counts[value] += 1
    return {level: counts[level] / total for level in levels}


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by the experiment runners.

    ``small()`` (the default) keeps every experiment in the seconds range on
    one core; ``paper()`` matches the published setup (10,000 users,
    s = 1000, c up to 1000) and is intended for long offline runs.
    """

    num_users: int = 150
    num_items: int = 1_200
    num_tags: int = 250
    num_communities: int = 10
    mean_actions_per_user: int = 50
    #: Personal-network size ``s``.
    network_size: int = 50
    #: Random-view size ``r``.
    random_view_size: int = 8
    #: Storage levels standing in for the paper's 10..1000 ladder.
    storage_levels: Tuple[int, ...] = (2, 4, 8, 12, 20, 35, 50)
    #: How many queries to evaluate (sampled queriers).
    num_queries: int = 40
    #: Top-k size.
    k: int = 10
    #: Bloom-filter sizing for digests (small filters keep tests fast).
    digest_bits: int = 4_096
    digest_hashes: int = 6
    seed: int = 42

    @classmethod
    def small(cls, seed: int = 42) -> "ExperimentScale":
        return cls(seed=seed)

    @classmethod
    def tiny(cls, seed: int = 42) -> "ExperimentScale":
        """An even smaller scale for unit tests of the experiment runners."""
        return cls(
            num_users=60,
            num_items=400,
            num_tags=120,
            num_communities=6,
            mean_actions_per_user=30,
            network_size=20,
            random_view_size=5,
            storage_levels=(2, 3, 5, 8, 10, 15, 20),
            num_queries=12,
            digest_bits=2_048,
            digest_hashes=5,
            seed=seed,
        )

    @classmethod
    def paper(cls, seed: int = 42) -> "ExperimentScale":
        return cls(
            num_users=10_000,
            num_items=100_000,
            num_tags=32_000,
            num_communities=120,
            mean_actions_per_user=950,
            network_size=1_000,
            random_view_size=10,
            storage_levels=PAPER_STORAGE_LEVELS,
            num_queries=10_000,
            k=10,
            digest_bits=20_000,
            digest_hashes=14,
            seed=seed,
        )

    def synthetic_config(self) -> SyntheticConfig:
        return SyntheticConfig(
            num_users=self.num_users,
            num_items=self.num_items,
            num_tags=self.num_tags,
            num_communities=self.num_communities,
            mean_actions_per_user=self.mean_actions_per_user,
            seed=self.seed,
        )

    def build_dataset(self) -> Dataset:
        return generate_dataset(self.synthetic_config())
