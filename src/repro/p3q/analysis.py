"""Analytical model of the eager-mode query processing (paper Section 2.4).

Under the simplifying assumption that every gossip destination finds the
same number ``X`` of requested profiles in its local storage, the paper
derives:

* ``R(α)`` -- the number of eager cycles until the querier has the best
  results her personal network can provide, for a remaining list of initial
  length ``L`` (Theorem 2.1);
* the monotonicity of ``R(α)`` on both sides of ``α = 0.5`` and the
  optimality of ``α = 0.5`` (Theorem 2.2);
* an upper bound of ``2^{R(α)}`` users involved and ``2^{R(α)} - 1`` partial
  result messages (Theorem 2.3);
* an upper bound of ``2 (2^{R(α)} - 1)`` eager gossip messages carrying
  remaining lists (Theorem 2.4).

The module also contains a direct recurrence simulator for the remaining-list
lengths, used by tests and the analysis benchmark to check the closed form
against the mechanistic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple


def cycles_to_complete(length: int, found_per_hop: int, alpha: float) -> float:
    """``R(α)`` of Theorem 2.1.

    ``length`` is the querier's initial remaining-list length ``L``;
    ``found_per_hop`` is ``X``, the number of requested profiles found at
    each destination.  The value is a real number (the paper's closed form);
    callers wanting a cycle count should take ``ceil``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if found_per_hop <= 0:
        raise ValueError("found_per_hop must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if length == 0:
        return 0.0
    if length <= found_per_hop:
        # A single hop finds everything: one cycle, whatever the split.  The
        # paper's closed form (and its monotonicity proof) assumes L >= X.
        return 1.0
    ratio = length / found_per_hop
    if alpha in (0.0, 1.0):
        return ratio
    if alpha >= 0.5:
        inner = (1.0 - alpha) * ratio + alpha
        return 1.0 - math.log(inner) / math.log(alpha)
    beta = 1.0 - alpha
    inner = alpha * ratio + beta
    return 1.0 - math.log(inner) / math.log(beta)


def max_users_involved(cycles: float) -> int:
    """Upper bound on users touched by one query (Theorem 2.3): ``2^R``."""
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    return int(2 ** math.ceil(cycles))


def max_partial_results(cycles: float) -> int:
    """Upper bound on partial result messages (Theorem 2.3): ``2^R - 1``."""
    return max(0, max_users_involved(cycles) - 1)


def max_remaining_list_messages(cycles: float) -> int:
    """Upper bound on eager gossip messages (Theorem 2.4): ``2 (2^R - 1)``."""
    return 2 * max_partial_results(cycles)


@dataclass
class DrainTrace:
    """Result of mechanistically simulating the remaining-list recurrence."""

    #: Longest remaining list at the end of each cycle (index 0 = after cycle 1).
    longest_per_cycle: List[float]
    #: Number of cycles until every remaining list is empty.
    cycles: int
    #: Number of distinct "users" (list holders) that participated.
    holders: int


def simulate_remaining_list_drain(
    length: int,
    found_per_hop: int,
    alpha: float,
    max_cycles: int = 10_000,
) -> DrainTrace:
    """Replay the idealized splitting process of Section 2.4.

    Each cycle, every holder of a non-empty list gossips once: ``X`` profiles
    are found, the holder keeps ``α`` of the rest and hands ``1-α`` to a new
    holder.  Lengths are real numbers exactly as in the paper's recurrence.
    """
    if found_per_hop <= 0:
        raise ValueError("found_per_hop must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    lists: List[float] = [float(length)]
    longest: List[float] = []
    holders = 1
    cycles = 0
    epsilon = 1e-9
    while any(value > epsilon for value in lists) and cycles < max_cycles:
        cycles += 1
        next_lists: List[float] = []
        for value in lists:
            if value <= epsilon:
                next_lists.append(0.0)
                continue
            after_found = max(0.0, value - found_per_hop)
            keep = alpha * after_found
            handoff = (1.0 - alpha) * after_found
            next_lists.append(keep)
            if handoff > epsilon:
                next_lists.append(handoff)
                holders += 1
            elif after_found > epsilon and alpha == 0.0:
                # α = 0 hands everything off; the old holder is done.
                pass
        lists = next_lists
        longest.append(max(lists) if lists else 0.0)
    return DrainTrace(longest_per_cycle=longest, cycles=cycles, holders=holders)



def alpha_sweep(
    length: int, found_per_hop: int, alphas: Tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
) -> Dict[float, float]:
    """``R(α)`` for a set of α values (the analysis companion to Figure 3)."""
    return {alpha: cycles_to_complete(length, found_per_hop, alpha) for alpha in alphas}
