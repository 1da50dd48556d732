"""Traffic and activity accounting for the simulator.

Bandwidth consumption is a first-class result in the paper (Section 3.3.2,
Figure 6, the Section 3.5 summary in Kbps), so every message sent through
the simulated network carries a size in bytes and a traffic *kind*.  The
collector aggregates per-kind, per-cycle and per-query totals that the
experiment harness turns into the paper's series.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

#: Well-known traffic kinds (free-form strings are allowed too).
KIND_RANDOM_VIEW = "random_view_digests"
KIND_DIGESTS = "personal_digests"
KIND_COMMON_ITEMS = "common_item_actions"
KIND_FULL_PROFILES = "full_profiles"
KIND_REMAINING_FORWARD = "remaining_list_forward"
KIND_REMAINING_RETURN = "remaining_list_return"
KIND_PARTIAL_RESULT = "partial_result"

#: :meth:`StatsCollector.record` folds the row buffer into the aggregates
#: whenever it holds this many rows (~400 KB of row tuples).
FOLD_ROWS = 4096


class StatsCollector:
    """Aggregate message counts and byte volumes across a simulation.

    Recording sits on the per-message hot path, so it appends one row; the
    per-kind/cycle/query aggregates are folded in lazily (and incrementally
    -- each row is processed exactly once) when an aggregate view is read
    after new traffic arrived, or when the buffer is full.

    The row buffer is bounded in every runtime: once it holds
    :data:`FOLD_ROWS` rows, :meth:`record` folds them into the aggregates --
    and into the per-(query, kind) receiver sets that back
    :meth:`query_receivers` -- and drops them.  Every view is exact
    regardless of when folds happen.
    """

    def __init__(self) -> None:
        #: Raw rows ``(cycle, sender, receiver, kind, size_bytes, query_id)``.
        self._rows: List[tuple] = []
        #: Number of leading rows already folded into the aggregates.
        self._aggregated = 0
        #: ``(query_id, kind) -> receivers``, the fold behind
        #: :meth:`query_receivers`.
        self._receivers: Dict[tuple, set] = defaultdict(set)
        self._bytes_by_kind: Dict[str, int] = defaultdict(int)
        self._bytes_by_cycle: Dict[int, int] = defaultdict(int)
        self._bytes_by_query: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._messages_by_kind: Dict[str, int] = defaultdict(int)
        self._messages_by_query: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- recording ------------------------------------------------------------

    def record(
        self,
        cycle: int,
        sender: int,
        receiver: int,
        kind: str,
        size_bytes: int,
        query_id: Optional[int] = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        rows = self._rows
        rows.append((cycle, sender, receiver, kind, size_bytes, query_id))
        if len(rows) >= FOLD_ROWS:
            self.flush()

    def _catch_up(self) -> None:
        """Fold not-yet-aggregated rows into the aggregate dictionaries."""
        rows = self._rows
        start = self._aggregated
        if start == len(rows):
            return
        bytes_by_kind = self._bytes_by_kind
        bytes_by_cycle = self._bytes_by_cycle
        messages_by_kind = self._messages_by_kind
        for cycle, _sender, receiver, kind, size_bytes, query_id in rows[start:]:
            bytes_by_kind[kind] += size_bytes
            bytes_by_cycle[cycle] += size_bytes
            messages_by_kind[kind] += 1
            if query_id is not None:
                self._bytes_by_query[query_id][kind] += size_bytes
                self._messages_by_query[query_id][kind] += 1
                self._receivers[query_id, kind].add(receiver)
        self._aggregated = len(rows)

    # -- flushing -------------------------------------------------------------

    def flush(self) -> int:
        """Fold every buffered row into the aggregates and drop the buffer.

        :meth:`record` calls it every :data:`FOLD_ROWS` rows; a caller may
        call it at any time.  Every view answers identically before and
        after a flush.  Returns the number of rows dropped.
        """
        self._catch_up()
        dropped = len(self._rows)
        self._rows.clear()
        self._aggregated = 0
        return dropped

    # -- aggregate views ------------------------------------------------------

    def query_receivers(self, query_id: int, kind: str) -> set:
        """Distinct receivers of one query's traffic of one kind (a copy).

        Backs per-query metrics (users reached).
        """
        self._catch_up()
        return set(self._receivers.get((query_id, kind), ()))

    def total_bytes(self, kind: Optional[str] = None) -> int:
        self._catch_up()
        if kind is None:
            return sum(self._bytes_by_kind.values())
        return self._bytes_by_kind.get(kind, 0)

    def total_messages(self, kind: Optional[str] = None) -> int:
        self._catch_up()
        if kind is None:
            return sum(self._messages_by_kind.values())
        return self._messages_by_kind.get(kind, 0)

    def bytes_by_kind(self) -> Dict[str, int]:
        self._catch_up()
        return dict(self._bytes_by_kind)

    def bytes_by_cycle(self) -> Dict[int, int]:
        self._catch_up()
        return dict(self._bytes_by_cycle)

    def query_bytes(self, query_id: int) -> Dict[str, int]:
        """Per-kind byte totals attributed to one query (Figure 6 rows)."""
        self._catch_up()
        return dict(self._bytes_by_query.get(query_id, {}))

    def query_messages(self, query_id: int) -> Dict[str, int]:
        self._catch_up()
        return dict(self._messages_by_query.get(query_id, {}))

    def query_ids(self) -> List[int]:
        self._catch_up()
        return sorted(self._bytes_by_query)

    # -- derived rates --------------------------------------------------------

    def average_bandwidth_bps(
        self,
        seconds_per_cycle: float,
        kinds: Optional[Iterable[str]] = None,
        num_nodes: Optional[int] = None,
    ) -> float:
        """Average bandwidth in *bits per second*, per node if requested.

        The paper reports per-user rates (13.4 Kbps lazy maintenance, 91 Kbps
        per query): dividing the total traffic by the simulated wall-clock
        duration and by the number of participating nodes reproduces that
        quantity for our measured traffic.
        """
        if seconds_per_cycle <= 0:
            raise ValueError("seconds_per_cycle must be positive")
        self._catch_up()
        cycles = (max(self._bytes_by_cycle) + 1) if self._bytes_by_cycle else 1
        if kinds is None:
            total = self.total_bytes()
        else:
            total = sum(self._bytes_by_kind.get(kind, 0) for kind in kinds)
        duration = cycles * seconds_per_cycle
        bits_per_second = total * 8 / duration
        if num_nodes:
            bits_per_second /= num_nodes
        return bits_per_second
