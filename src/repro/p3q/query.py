"""Querier-side and forwarded query state.

Two kinds of state exist during eager-mode processing:

* the **query session** at the querier: the incremental NRA merger, the set
  of profiles already accounted for, the per-cycle result snapshots and the
  querier's own remaining list.  A session is kept after it closes (it is
  the result record), so at the closing cycle its merger is frozen down to
  the exact top-k;
* the **forwarded query state** at every other node reached by the query:
  the query itself plus the remaining list that node is responsible for
  (``L_Q(u)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..data.queries import Query
from ..topk.incremental import IncrementalNRA


def coverage_fraction(profiles_used: int, profiles_total: int) -> float:
    """The shared coverage semantics of session and snapshot.

    Coverage is the fraction of the profiles *expected at issue time* (the
    querier's personal network plus the querier herself) that have already
    contributed a partial result.  Two edge cases share one rule:

    * ``profiles_total == 0`` -- no expected profile at all.  Only reachable
      by constructing a :class:`CycleSnapshot` directly (a session always
      expects at least the querier): nothing can be missing, coverage is 1.
    * a querier whose personal network churned away entirely mid-query keeps
      ``profiles_total`` at its issue-time value: departed members never
      contribute, so coverage stays below 1 and the session never closes.
      The serving layer surfaces such queries as *abandoned at the cutoff*
      with this coverage value; they are never silently promoted to 1.

    The recall metrics (:mod:`repro.metrics.recall`, the serving harness)
    consume :attr:`CycleSnapshot.coverage`; :attr:`QuerySession.coverage` is
    the same quantity for the *current* state and always equals the latest
    snapshot's value right after :meth:`QuerySession.close_cycle`.
    """
    if profiles_total <= 0:
        return 1.0
    return profiles_used / profiles_total


@dataclass
class PartialResult:
    """A partial result list sent back to the querier by one node."""

    query_id: int
    sender: int
    #: item -> partial relevance score (positive scores only).
    scores: Dict[int, float]
    #: Users whose profiles were used to build this list.
    contributors: Tuple[int, ...]
    #: Eager cycle during which the list was produced.
    cycle: int

    def __len__(self) -> int:
        return len(self.scores)


@dataclass
class CycleSnapshot:
    """Result state displayed to the querier at the end of one eager cycle."""

    cycle: int
    top_k: List[Tuple[int, float]]
    profiles_used: int
    profiles_total: int

    @property
    def items(self) -> List[int]:
        return [item for item, _ in self.top_k]

    @property
    def coverage(self) -> float:
        """Fraction of the personal network already contributing.

        This is the quality estimate the paper lets users consult to decide
        whether the current results are satisfactory (shared semantics:
        :func:`coverage_fraction`).
        """
        return coverage_fraction(self.profiles_used, self.profiles_total)


class QuerySession:
    """Everything the querier tracks about one of her queries."""

    def __init__(
        self,
        query: Query,
        k: int,
        personal_network_ids: Sequence[int],
        issued_cycle: int = 0,
    ) -> None:
        self.query = query
        self.k = k
        #: Ids whose profiles must eventually contribute (the whole personal
        #: network plus the querier herself).
        self.expected_profiles: Set[int] = set(personal_network_ids) | {query.querier}
        self.profiles_used: Set[int] = set()
        self.remaining: List[int] = []
        self._merger = IncrementalNRA(k)
        self._pending: List[PartialResult] = []
        self.snapshots: List[CycleSnapshot] = []
        self.closed = False
        #: Eager cycle at which the query was issued.  Stored at creation so
        #: completion latency is a session-local quantity instead of having
        #: to be reconstructed by scanning snapshots; a query (re-)issued
        #: mid-run carries the re-issue cycle, not 0.
        self.issued_cycle = issued_cycle
        #: Eager cycle at which the session became complete (``None`` while
        #: processing): the cycle of its last snapshot.
        self.closed_cycle: Optional[int] = None

    # -- feeding --------------------------------------------------------------

    def set_remaining(self, user_ids: Sequence[int]) -> None:
        """Initialise the querier's own remaining list ``L_Q(u_i)``."""
        self.remaining = list(user_ids)

    def add_local_result(self, scores: Dict[int, float], contributors: Sequence[int], cycle: int = 0) -> None:
        """Record the querier's local partial result (Algorithm 2, line 3)."""
        self.receive_partial(
            PartialResult(
                query_id=self.query.query_id,
                sender=self.query.querier,
                scores=dict(scores),
                contributors=tuple(contributors),
                cycle=cycle,
            )
        )

    def receive_partial(self, partial: PartialResult) -> None:
        """Buffer a partial result until the end of the current cycle.

        Once the session is closed the querier has read off the exact
        result: a partial arriving after that (a straggler retry under loss
        or latency) must not perturb it, and nothing will fold it any more
        -- service mode stops closing cycles on a finished session -- so it
        is dropped here, at receipt, instead of being buffered.
        """
        if not self.closed:
            self._pending.append(partial)

    # -- per-cycle processing -------------------------------------------------

    def close_cycle(self, cycle: int) -> CycleSnapshot:
        """Merge the partial results received during ``cycle`` (Algorithm 4).

        Called on open sessions only (:meth:`P3QNode.close_open_sessions
        <repro.p3q.node.P3QNode.close_open_sessions>`, in both runtimes): the
        closing snapshot is the session's last, and closing a closed session
        raises the frozen merger's ``RuntimeError``.
        """
        new_lists: List[Dict[int, float]] = []
        for partial in self._pending:
            contributors = set(partial.contributors)
            new_contributors = contributors - self.profiles_used
            if not new_contributors:
                # Every contributor was already counted: using the list again
                # would double count (the partitioning normally prevents
                # this; the guard keeps the invariant under churn retries).
                continue
            if partial.scores and new_contributors != contributors:
                # Churn-retry overlap: the aggregated scores mix profiles
                # already merged in an earlier cycle with new ones, and the
                # per-contributor shares are not separable from the sum.
                # Merging would double count the overlap, so the tainted list
                # is dropped whole -- and the new contributors are NOT marked
                # used, because their contribution never reached the merger
                # (same accounting as a partial result lost on the wire).
                continue
            self.profiles_used.update(new_contributors)
            if partial.scores:
                new_lists.append(partial.scores)
        self._pending.clear()
        top_k = self._merger.process_cycle(new_lists)
        if self.is_complete():
            # Every neighbour's profile has contributed: the querier knows the
            # processing is over and reads off the exact result (recall 1).
            # The merger keeps that answer and drops its merge state.
            top_k = self._merger.freeze()
        snapshot = CycleSnapshot(
            cycle=cycle,
            top_k=top_k,
            profiles_used=len(self.profiles_used & self.expected_profiles),
            profiles_total=len(self.expected_profiles),
        )
        self.snapshots.append(snapshot)
        if self.is_complete():
            self.closed = True
            self.closed_cycle = cycle
        return snapshot

    # -- results --------------------------------------------------------------

    def current_items(self, exact: bool = False) -> List[int]:
        """The current top-k item ids (``exact=True`` exhausts all lists)."""
        if exact:
            return [item for item, _ in self._merger.finalize()]
        return self._merger.current_items()

    def current_top_k(self) -> List[Tuple[int, float]]:
        return self._merger.current_top_k()

    def is_complete(self) -> bool:
        """True when every expected profile has contributed."""
        return self.expected_profiles <= self.profiles_used

    @property
    def coverage(self) -> float:
        """Current coverage; equals the latest snapshot's (:func:`coverage_fraction`)."""
        return coverage_fraction(
            len(self.profiles_used & self.expected_profiles),
            len(self.expected_profiles),
        )

    @property
    def latency_cycles(self) -> Optional[int]:
        """Eager cycles from issue to completion, or ``None`` while open.

        ``issued_cycle`` is pinned at session creation (including the eager
        re-issue path, where it carries the re-issue cycle) and
        ``closed_cycle`` at the closing transition.
        """
        if self.closed_cycle is None:
            return None
        return self.closed_cycle - self.issued_cycle


@dataclass
class ForwardedQueryState:
    """State a non-querier node keeps for a query it was reached by."""

    query: Query
    #: The remaining list this node is responsible for (``L_Q(u_dest)``).
    remaining: List[int] = field(default_factory=list)

    @property
    def active(self) -> bool:
        return bool(self.remaining)
