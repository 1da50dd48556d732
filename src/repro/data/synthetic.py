"""Synthetic delicious-like tagging trace generator.

The paper evaluates P3Q on a trace crawled from delicious in January 2009
(13,521 users, 31.8M tagging actions) reduced to 10,000 users and the items /
tags used by at least 10 distinct users.  That crawl is not redistributable,
so this module generates a synthetic trace with the statistical properties
the protocol actually depends on:

* **long-tail popularity** -- item and tag usage follows a Zipf-like
  distribution ("most items and tags are used by few users");
* **skewed user activity** -- a few very active users, many light users
  (the paper reports a mean of 249 items per user with 99% under 2,000);
* **community structure** -- users cluster around topical interests, so that
  users sharing a community share many ``(item, tag)`` pairs.  This is the
  property that makes similarity-biased gossip converge faster than random
  search and that gives personalized top-k results their meaning.

The generator is fully deterministic given a seed, and the generation path
is a *streaming single pass*: :meth:`SyntheticTraceGenerator.iter_profiles`
yields one finished, fully-indexed :class:`~repro.data.models.UserProfile`
at a time (built through the direct interned constructor, so indexes are
populated exactly once), and :meth:`~SyntheticTraceGenerator.generate`
merely collects that stream into a :class:`~repro.data.models.Dataset`.
The dataset disk cache (:mod:`repro.data.loader`) rides the same stream,
appending each user's actions to its flat columns as the profile is built,
and never holds the trace as per-user action lists.

Per-community popularity distributions are materialized once as cumulative
weight tables; the per-action draws then run ``random.choices`` with
``cum_weights=``, which consumes exactly the same single ``random()`` call
and bisects over exactly the same floats as the previous per-call
``weights=`` form -- traces are bit-identical to those generated before the
streaming rewrite (pinned by the dataset fingerprint test).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence

from .models import Dataset, TaggingAction, UserProfile

#: Bump when the generation algorithm changes its draws: the dataset disk
#: cache (:mod:`repro.data.loader`) keys cached traces on the config *and*
#: this fingerprint, so a stale cache can never shadow a new generator.
GENERATOR_FINGERPRINT = "synthetic-trace-v1"


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic trace.

    The defaults produce a small trace (hundreds of users) suitable for unit
    tests and quick experiments; the paper-scale values are given in the
    comments.  All distributions are relative, so scaling ``num_users`` up
    preserves the trace's shape.
    """

    num_users: int = 300            # paper: 10,000
    num_items: int = 2_000          # paper: 101,144
    num_tags: int = 400             # paper: 31,899
    num_communities: int = 12
    #: Mean number of tagging actions per user (long-tailed around this).
    mean_actions_per_user: int = 60  # paper: ~950 actions (249 items)
    #: Zipf skew of item popularity inside a community.
    item_zipf_exponent: float = 1.1
    #: Zipf skew of tag popularity inside a community.
    tag_zipf_exponent: float = 1.05
    #: Fraction of a user's actions drawn from her communities (vs global noise).
    community_affinity: float = 0.85
    #: Each item receives between 1 and this many tags from one user.
    max_tags_per_item: int = 4
    #: How many communities a user belongs to (1..this).
    max_communities_per_user: int = 3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.num_communities <= 0:
            raise ValueError("num_communities must be positive")
        if not 0.0 <= self.community_affinity <= 1.0:
            raise ValueError("community_affinity must be in [0, 1]")
        if self.max_tags_per_item < 1:
            raise ValueError("max_tags_per_item must be >= 1")


@dataclass
class Community:
    """A topical community: a pool of items and tags with Zipf popularity.

    ``item_cum`` / ``tag_cum`` are the cumulative-weight tables fed to
    ``random.choices(..., cum_weights=...)``: precomputing them turns every
    weighted draw from O(pool) into O(log pool) while consuming the exact
    same floats (``accumulate`` is what ``choices`` runs internally).
    """

    community_id: int
    items: List[int]
    tags: List[int]
    item_weights: List[float] = field(default_factory=list)
    tag_weights: List[float] = field(default_factory=list)
    item_cum: List[float] = field(default_factory=list)
    tag_cum: List[float] = field(default_factory=list)
    #: ``cum[-1] + 0.0`` exactly as ``random.choices`` computes its total.
    item_total: float = 0.0
    tag_total: float = 0.0


def _zipf_weights(n: int, exponent: float) -> List[float]:
    """Unnormalised Zipf weights ``1/rank**exponent`` for ranks 1..n."""
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def _heavy_tailed_count(rng: random.Random, mean: int) -> int:
    """Draw a per-user activity level with a heavy right tail.

    A log-normal with median below the mean gives the "few hyper-active
    users, many light users" shape observed in delicious.
    """
    if mean <= 1:
        return max(1, mean)
    sigma = 0.9
    mu = math.log(mean) - sigma ** 2 / 2
    value = int(round(rng.lognormvariate(mu, sigma)))
    return max(3, value)


class SyntheticTraceGenerator:
    """Generate a :class:`~repro.data.models.Dataset` from a config."""

    def __init__(self, config: SyntheticConfig | None = None) -> None:
        self.config = config or SyntheticConfig()
        self._rng = random.Random(self.config.seed)
        self._communities = self._build_communities()
        self._memberships: Dict[int, List[int]] = {}
        self._dataset: Dataset | None = None
        #: Index of the next user the streaming pass will emit.
        self._next_user = 0

    # -- public API -----------------------------------------------------------

    def generate(self) -> Dataset:
        """Generate the full dataset (cached: repeated calls return the same trace)."""
        if self._dataset is not None:
            return self._dataset
        self._dataset = Dataset({p.user_id: p for p in self.iter_profiles()})
        return self._dataset

    def iter_user_actions(self) -> Iterator[tuple[int, List[TaggingAction]]]:
        """Stream ``(user_id, actions)`` pairs, one user per step (single pass).

        The yielded list is exactly what
        :meth:`UserProfile.from_distinct_actions` receives on the generation
        path -- persisting it and replaying it through the same constructor
        reproduces the profile bit for bit, index tuple order included.  The
        stream shares the generator's single RNG, so it can only run
        forward once.
        """
        if self._next_user != 0 or self._dataset is not None:
            raise RuntimeError("the generation stream was already consumed")
        for user_id in range(self.config.num_users):
            self._next_user = user_id + 1
            memberships = self._pick_communities(user_id)
            self._memberships[user_id] = memberships
            yield user_id, self._generate_actions(memberships)

    def iter_profiles(self) -> Iterator[UserProfile]:
        """Stream the trace one finished profile at a time (single pass).

        Profiles come out fully indexed through
        :meth:`UserProfile.from_distinct_actions` -- the interned action-id
        set, the item/tag indexes and the version counter are built exactly
        once, directly from the generated action list.  Use :meth:`generate`
        for the collected (and cached) dataset.
        """
        if self._dataset is not None:
            yield from self._dataset.profiles()
            return
        for user_id, actions in self.iter_user_actions():
            yield UserProfile.from_distinct_actions(user_id, actions)

    def community_memberships(self) -> Dict[int, List[int]]:
        """user_id -> community ids used while generating each profile.

        Useful for experiments that want to reason about ground-truth
        communities (e.g. checking that personal networks are dominated by
        same-community users).  Triggers generation if it has not happened yet.
        """
        if self._dataset is None:
            self.generate()
        return {user_id: list(ids) for user_id, ids in self._memberships.items()}

    # -- internals ------------------------------------------------------------

    def _build_communities(self) -> List[Community]:
        cfg = self.config
        communities: List[Community] = []
        items = list(range(cfg.num_items))
        tags = list(range(cfg.num_tags))
        self._rng.shuffle(items)
        self._rng.shuffle(tags)
        items_per_comm = max(10, cfg.num_items // cfg.num_communities)
        tags_per_comm = max(5, cfg.num_tags // cfg.num_communities)
        for cid in range(cfg.num_communities):
            # Communities overlap a little: each draws from a sliding window
            # over the shuffled global pools plus a random sample.
            start_i = (cid * items_per_comm) % max(1, cfg.num_items - items_per_comm)
            start_t = (cid * tags_per_comm) % max(1, cfg.num_tags - tags_per_comm)
            comm_items = items[start_i:start_i + items_per_comm]
            comm_tags = tags[start_t:start_t + tags_per_comm]
            extra_items = self._rng.sample(items, k=min(len(items), items_per_comm // 5))
            extra_tags = self._rng.sample(tags, k=min(len(tags), tags_per_comm // 5))
            comm_items = list(dict.fromkeys(comm_items + extra_items))
            comm_tags = list(dict.fromkeys(comm_tags + extra_tags))
            item_weights = _zipf_weights(len(comm_items), cfg.item_zipf_exponent)
            tag_weights = _zipf_weights(len(comm_tags), cfg.tag_zipf_exponent)
            item_cum = list(accumulate(item_weights))
            tag_cum = list(accumulate(tag_weights))
            communities.append(
                Community(
                    community_id=cid,
                    items=comm_items,
                    tags=comm_tags,
                    item_weights=item_weights,
                    tag_weights=tag_weights,
                    item_cum=item_cum,
                    tag_cum=tag_cum,
                    item_total=item_cum[-1] + 0.0,
                    tag_total=tag_cum[-1] + 0.0,
                )
            )
        return communities

    def _pick_communities(self, user_id: int) -> List[int]:
        cfg = self.config
        count = self._rng.randint(1, cfg.max_communities_per_user)
        return self._rng.sample(range(cfg.num_communities), k=min(count, cfg.num_communities))

    def _generate_actions(self, memberships: Sequence[int]) -> List[TaggingAction]:
        cfg = self.config
        rng = self._rng
        rand = rng.random
        randint = rng.randint
        randrange = rng.randrange
        choice = rng.choice
        communities = self._communities
        affinity = cfg.community_affinity
        num_items = cfg.num_items
        num_tags_universe = cfg.num_tags
        max_tags = cfg.max_tags_per_item
        target = _heavy_tailed_count(rng, cfg.mean_actions_per_user)
        actions: set[TaggingAction] = set()
        add = actions.add
        attempts = 0
        max_attempts = target * 10
        # The weighted draws inline ``random.choices(pool, cum_weights=cum,
        # k=1)``: one ``random()`` call bisected over the precomputed table
        # with the identical ``hi = len(pool) - 1`` bound and the identical
        # ``cum[-1] + 0.0`` total, so the consumed stream (and therefore the
        # trace) is bit-identical to the pre-streaming generator.
        while len(actions) < target and attempts < max_attempts:
            attempts += 1
            if rand() < affinity:
                community = communities[choice(memberships)]
                pool = community.items
                item = pool[bisect(community.item_cum, rand() * community.item_total, 0, len(pool) - 1)]
                tag_pool = community.tags
                tag_cum = community.tag_cum
                tag_total = community.tag_total
            else:
                item = randrange(num_items)
                tag_pool = None
            num_tags = randint(1, max_tags)
            for _ in range(num_tags):
                if tag_pool is not None:
                    tag = tag_pool[bisect(tag_cum, rand() * tag_total, 0, len(tag_pool) - 1)]
                else:
                    tag = randrange(num_tags_universe)
                add((item, tag))
        return list(actions)


def generate_dataset(config: SyntheticConfig | None = None) -> Dataset:
    """Convenience wrapper: build a generator and produce the dataset."""
    return SyntheticTraceGenerator(config).generate()


def paper_scale_config(seed: int = 42) -> SyntheticConfig:
    """A configuration matching the scale of the paper's cleaned trace.

    10,000 users, ~100k items, ~32k tags, ~950 actions per user on average.
    Running lazy-mode convergence at this scale in pure Python takes hours;
    this config exists so that the experiments are parameterized to paper
    scale, not hard-coded to the test scale.
    """
    return SyntheticConfig(
        num_users=10_000,
        num_items=100_000,
        num_tags=32_000,
        num_communities=120,
        mean_actions_per_user=950,
        seed=seed,
    )
