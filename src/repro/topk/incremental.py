"""Incremental NRA for asynchronously arriving partial result lists.

In P3Q the inputs of the top-k aggregation are not all available up front:
partial result lists are produced on the fly by the users reached by the
query and arrive at the querier over several gossip cycles.  Algorithm 4 of
the paper adapts NRA to this setting:

* the querier keeps, across cycles, the candidate heap and the per-list scan
  state (last seen value, last scanned position);
* at each cycle the *new* lists are scanned sequentially in parallel,
  starting from position 1;
* whenever the scan cursor reaches a position where some *old* list had
  stopped, that old list rejoins the scan -- so every list is scanned at most
  once over the whole processing;
* the scan of a cycle stops when the NRA confidence condition holds for the
  current knowledge (or everything is exhausted), and the current top-k is
  displayed to the user.

The final top-k (once every neighbour's profile has contributed) equals the
exact personalized top-k the centralized baseline would compute.  A merger
that has produced it is *frozen* (:meth:`IncrementalNRA.freeze`): it keeps
that answer and its counters and lets go of the heap and the lists, since a
querier holds her finished sessions for as long as the node runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .heap import CandidateHeap
from .nra import RankedList


@dataclass
class _ListState:
    """Scan state of one partial result list across cycles."""

    ranked: RankedList
    position: int = 0          # next index to read
    last_seen: float = 0.0     # score at the last read position (bound for unseen items)

    def __post_init__(self) -> None:
        if self.ranked.entries:
            # Before the first read, the optimistic bound for unseen items is
            # the list's top score.
            self.last_seen = self.ranked.entries[0][1]
        else:
            self.last_seen = 0.0

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.ranked.entries)


class IncrementalNRA:
    """Querier-side incremental top-k merging (paper Algorithm 4)."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._heap = CandidateHeap()
        self._lists: Dict[int, _ListState] = {}
        self._next_list_id = 0
        self._total_accesses = 0
        #: The exact top-k once :meth:`freeze` ran (``None`` while merging).
        self._answer: Optional[List[Tuple[int, float]]] = None

    # -- feeding lists --------------------------------------------------------

    def add_list(self, scores: Dict[int, float], list_id: Optional[int] = None) -> int:
        """Register a newly received partial result list.

        ``scores`` maps item -> partial relevance score; only positive scores
        are kept (the paper's partial results only contain items with positive
        partial scores).  Returns the internal list id.
        """
        self._require_merging()
        if list_id is None:
            list_id = self._next_list_id
        if list_id in self._lists:
            raise ValueError(f"list id {list_id} already registered")
        self._next_list_id = max(self._next_list_id, list_id) + 1
        ranked = RankedList.from_scores(list_id, scores)
        self._lists[list_id] = _ListState(ranked=ranked)
        return list_id

    def _require_merging(self) -> None:
        if self._answer is not None:
            raise RuntimeError("merger is frozen: its answer is final")

    # -- per-cycle processing -------------------------------------------------

    def process_cycle(self, new_lists: Sequence[Dict[int, float]] = ()) -> List[Tuple[int, float]]:
        """Add the lists received this cycle and recompute the top-k.

        Returns the current top-k as ``(item, worst_case_score)`` pairs; the
        worst-case score equals the exact score once processing is complete.
        """
        self._require_merging()
        new_ids = [self.add_list(scores) for scores in new_lists]
        self._scan(new_ids)
        return self.current_top_k()

    def _last_seen_bounds(self) -> Dict[int, float]:
        return {
            list_id: (0.0 if state.exhausted else state.last_seen)
            for list_id, state in self._lists.items()
        }

    def _scan(self, new_ids: Sequence[int]) -> None:
        """One cycle of Algorithm 4: scan new lists, pulling old ones back in."""
        new_set = set(new_ids)
        scanning: List[_ListState] = [
            self._lists[list_id] for list_id in new_ids if not self._lists[list_id].exhausted
        ]
        # Old lists that were never exhausted rejoin when the cursor reaches
        # the position where they had stopped (Algorithm 4, lines 18-22).
        dormant: List[_ListState] = [
            state
            for list_id, state in self._lists.items()
            if list_id not in new_set and not state.exhausted
        ]

        scanning_position = 0
        while (scanning or dormant) and not self._confident():
            if not scanning:
                # The new lists are exhausted but the answer is not confident
                # yet: resume the remaining old lists from where they stopped.
                scanning, dormant = dormant, []
            for state in list(scanning):
                item, score = state.ranked.entries[state.position]
                self._heap.observe(item, state.ranked.list_id, score)
                state.last_seen = score
                state.position += 1
                self._total_accesses += 1
                if state.exhausted:
                    scanning.remove(state)
            scanning_position += 1
            # Old lists stopped exactly at this depth rejoin the parallel scan.
            for state in list(dormant):
                if state.position == scanning_position:
                    dormant.remove(state)
                    if not state.exhausted:
                        scanning.append(state)

    def _confident(self) -> bool:
        bounds = self._last_seen_bounds()
        if all(state.exhausted for state in self._lists.values()):
            return True
        return self._heap.is_confident(self.k, bounds)

    # -- results --------------------------------------------------------------

    def current_top_k(self) -> List[Tuple[int, float]]:
        """The current best answer given everything scanned so far."""
        if self._answer is not None:
            return list(self._answer)
        return self._heap.top_k(self.k, self._last_seen_bounds())

    def current_items(self) -> List[int]:
        return [item for item, _ in self.current_top_k()]

    def finalize(self) -> List[Tuple[int, float]]:
        """Exhaust every registered list and return the exact top-k.

        Used when the querier knows no further partial results will arrive
        (all neighbours' profiles have been used) and wants the final answer
        regardless of the early-stop condition.
        """
        if self._answer is not None:
            return list(self._answer)
        pending = [list_id for list_id, state in self._lists.items() if not state.exhausted]
        while pending:
            for list_id in pending:
                state = self._lists[list_id]
                while not state.exhausted:
                    item, score = state.ranked.entries[state.position]
                    self._heap.observe(item, list_id, score)
                    state.last_seen = score
                    state.position += 1
                    self._total_accesses += 1
            pending = [list_id for list_id, state in self._lists.items() if not state.exhausted]
        return self.current_top_k()

    def freeze(self, shared: Sequence[Tuple[int, float]] = ()) -> List[Tuple[int, float]]:
        """:meth:`finalize`, then keep only the answer.

        A finished merger *is* its exact top-k: the candidate heap and the
        ranked lists are dropped (~9 KB per answered query that nothing
        reads again), every result accessor keeps answering what it
        answered at this point, and feeding it again raises.
        :attr:`sequential_accesses` stays at its final value.  A pair of
        the answer equal to one in ``shared`` (what the caller already
        holds, e.g. its previous top-k) is kept as that object.
        """
        if self._answer is None:
            held = {pair: pair for pair in shared}
            self._answer = [held.get(pair, pair) for pair in self.finalize()]
            self._lists = None
            self._heap = None
        return list(self._answer)

    # -- introspection --------------------------------------------------------

    @property
    def sequential_accesses(self) -> int:
        return self._total_accesses
