"""Profile dynamics and churn traces.

Section 3.4 of the paper evaluates two forms of dynamism:

* **profile dynamism** -- users keep tagging new items.  The paper analyses
  the 2008 delicious history, picks the week with the largest variation
  (2008-11-11 to 2008-11-18) and replays one day of it: 1,540 users changed
  their profiles with on average 8 new tagging actions (max 268), and the
  changes caused 1,719 users to replace on average 2 neighbours (max 148)
  in their personal networks.
* **churn** -- a fraction ``p`` of users leaves the system simultaneously.

This module generates equivalent synthetic change traces against any
:class:`~repro.data.models.Dataset`, with the same long-tailed "few users
change a lot" shape, plus the departing set of a massive departure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .models import ChangeDay, Dataset, ProfileChange, TaggingAction


@dataclass(frozen=True)
class DynamicsConfig:
    """Parameters of the synthetic profile-change trace."""

    #: Fraction of users that change their profile on a given day.
    #: Paper: 1,540 / 10,000 = 15.4% on the busiest day of the busiest week.
    change_fraction: float = 0.154
    #: Mean number of new tagging actions per changing user (paper: 8).
    mean_new_actions: int = 8
    #: Maximum number of new actions one user may add in a day (paper: 268).
    max_new_actions: int = 268
    #: How many simulated days to generate.
    num_days: int = 1
    #: Probability that a new action reuses an item already in the profile
    #: (re-tagging) rather than a fresh item.
    retag_probability: float = 0.3
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.change_fraction <= 1.0:
            raise ValueError("change_fraction must be in [0, 1]")
        if self.mean_new_actions < 1:
            raise ValueError("mean_new_actions must be >= 1")
        if self.num_days < 1:
            raise ValueError("num_days must be >= 1")


def _new_action_count(rng: random.Random, mean: int, cap: int) -> int:
    """Heavy-tailed number of new actions, capped (paper max: 268)."""
    sigma = 1.0
    mu = math.log(max(mean, 1)) - sigma ** 2 / 2
    value = int(round(rng.lognormvariate(mu, sigma)))
    return max(1, min(cap, value))


class ProfileDynamicsGenerator:
    """Generate per-day batches of new tagging actions for a dataset."""

    def __init__(self, dataset: Dataset, config: DynamicsConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config or DynamicsConfig()
        self._rng = random.Random(self.config.seed)
        # Precompute global item/tag pools once so new actions can introduce
        # items the user has never tagged (new interests).
        self._all_items: List[int] = sorted(dataset.items())
        self._all_tags: List[int] = sorted(dataset.tags())
        if not self._all_items or not self._all_tags:
            raise ValueError("dataset must contain at least one item and one tag")

    def generate(self) -> List[ChangeDay]:
        """Generate ``num_days`` days of profile changes."""
        return [self._generate_day(day) for day in range(self.config.num_days)]

    def generate_day(self, day: int = 0) -> ChangeDay:
        """Generate a single day of changes (the paper replays one day)."""
        return self._generate_day(day)

    # -- internals ------------------------------------------------------------

    def _generate_day(self, day: int) -> ChangeDay:
        rng = self._rng
        user_ids = self.dataset.user_ids
        num_changing = max(1, int(round(len(user_ids) * self.config.change_fraction)))
        changing = rng.sample(user_ids, k=min(num_changing, len(user_ids)))
        changes: List[ProfileChange] = []
        for user_id in changing:
            actions = self._new_actions_for(user_id)
            if actions:
                changes.append(ProfileChange(user_id=user_id, new_actions=tuple(actions)))
        return ChangeDay(day=day, changes=tuple(changes))

    def _new_actions_for(self, user_id: int) -> List[TaggingAction]:
        rng = self._rng
        profile = self.dataset.profile(user_id)
        chosen: set = set()
        own_items = sorted(profile.items)
        count = _new_action_count(rng, self.config.mean_new_actions, self.config.max_new_actions)
        actions: List[TaggingAction] = []
        attempts = 0
        while len(actions) < count and attempts < count * 10:
            attempts += 1
            if own_items and rng.random() < self.config.retag_probability:
                item = rng.choice(own_items)
            else:
                item = rng.choice(self._all_items)
            tag = rng.choice(self._all_tags)
            action = (item, tag)
            if action in profile or action in chosen:
                continue
            chosen.add(action)
            actions.append(action)
        return actions


def apply_change_day(dataset: Dataset, change_day: ChangeDay) -> Dict[int, int]:
    """Apply a day of changes in place; returns ``user_id -> #new actions``.

    The paper assumes all users change their profiles simultaneously at one
    instant of the simulation; this helper performs exactly that mutation on
    the live dataset (the profiles referenced by the nodes).
    """
    applied: Dict[int, int] = {}
    for change in change_day.changes:
        profile = dataset.profile(change.user_id)
        applied[change.user_id] = profile.add_all(change.new_actions)
    return applied


def massive_departure(
    dataset: Dataset,
    fraction: float,
    seed: int = 11,
    protect: Sequence[int] = (),
) -> Tuple[int, ...]:
    """The sorted ids of ``fraction`` of users, picked uniformly at random to leave.

    ``protect`` lists users that must stay online (e.g. the queriers under
    observation -- the paper measures the recall *obtained by* queriers, so a
    departed querier would be meaningless).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = random.Random(seed)
    protected = set(protect)
    candidates = [uid for uid in dataset.user_ids if uid not in protected]
    count = int(round(fraction * len(dataset.user_ids)))
    count = min(count, len(candidates))
    return tuple(sorted(rng.sample(candidates, k=count)))
