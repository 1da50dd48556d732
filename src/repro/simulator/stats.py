"""Traffic and activity accounting for the simulator.

Bandwidth consumption is a first-class result in the paper (Section 3.3.2,
Figure 6, the Section 3.5 summary in Kbps), so every message sent through
the simulated network carries a size in bytes and a traffic *kind*.  The
collector aggregates per-kind, per-cycle and per-query totals that the
experiment harness turns into the paper's series.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

#: Well-known traffic kinds (free-form strings are allowed too).
KIND_RANDOM_VIEW = "random_view_digests"
KIND_DIGESTS = "personal_digests"
KIND_COMMON_ITEMS = "common_item_actions"
KIND_FULL_PROFILES = "full_profiles"
KIND_REMAINING_FORWARD = "remaining_list_forward"
KIND_REMAINING_RETURN = "remaining_list_return"
KIND_PARTIAL_RESULT = "partial_result"


@dataclass(slots=True)
class TrafficRecord:
    """One accounted transmission.

    Slotted: one record is allocated per simulated message, so at large
    network sizes the per-instance ``__dict__`` of a plain dataclass costs
    real memory and allocation time.
    """

    cycle: int
    sender: int
    receiver: int
    kind: str
    size_bytes: int
    #: Optional tag tying the transmission to a query (eager mode traffic).
    query_id: Optional[int] = None


class StatsCollector:
    """Aggregate message counts and byte volumes across a simulation.

    Recording sits on the per-message hot path, so it only appends one row;
    the per-kind/cycle/query aggregates are folded in lazily (and
    incrementally -- each row is processed exactly once) the first time an
    aggregate view is read after new traffic arrived.

    At large N the raw row buffer is the collector's only unbounded state
    (an N=10,000 lazy cycle records ~10^5 rows).  ``flush_every`` bounds it:
    every that-many cycles (the engine ticks :meth:`maybe_flush` at each
    cycle boundary) the buffered rows are folded into the aggregates -- and
    into the per-(query, kind) receiver sets that back
    :meth:`query_receivers` -- and then dropped.  Every aggregate view is
    exact regardless of flushing; only :attr:`records` degrades to the rows
    retained since the last flush (documented there).
    """

    def __init__(self, flush_every: Optional[int] = None) -> None:
        if flush_every is not None and flush_every < 1:
            raise ValueError("flush_every must be positive when set")
        #: Raw rows ``(cycle, sender, receiver, kind, size_bytes, query_id)``.
        self._rows: List[tuple] = []
        #: Number of leading rows already folded into the aggregates.
        self._aggregated = 0
        #: Fold-and-drop period in cycles (``None`` keeps every row).
        self.flush_every = flush_every
        self._cycles_since_flush = 0
        #: Rows dropped by flushes (diagnostics: total recorded = this +
        #: ``len(self._rows)``).
        self._flushed_rows = 0
        #: ``(query_id, kind) -> receivers`` folded out of flushed rows so
        #: :meth:`query_receivers` stays exact across flushes.
        self._flushed_receivers: Dict[tuple, set] = {}
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
        self._rows.append((cycle, sender, receiver, kind, size_bytes, query_id))

    def _catch_up(self) -> None:
        """Fold not-yet-aggregated rows into the aggregate dictionaries."""
        rows = self._rows
        start = self._aggregated
        if start == len(rows):
            return
        bytes_by_kind = self._bytes_by_kind
        bytes_by_cycle = self._bytes_by_cycle
        messages_by_kind = self._messages_by_kind
        for cycle, _sender, _receiver, kind, size_bytes, query_id in rows[start:]:
            bytes_by_kind[kind] += size_bytes
            bytes_by_cycle[cycle] += size_bytes
            messages_by_kind[kind] += 1
            if query_id is not None:
                self._bytes_by_query[query_id][kind] += size_bytes
                self._messages_by_query[query_id][kind] += 1
        self._aggregated = len(rows)

    # -- flushing -------------------------------------------------------------

    def maybe_flush(self) -> bool:
        """Cycle-boundary tick: flush if the configured period elapsed.

        Called by the engine once per cycle; a no-op unless ``flush_every``
        is set.  Returns ``True`` when a flush happened.
        """
        if self.flush_every is None:
            return False
        self._cycles_since_flush += 1
        if self._cycles_since_flush < self.flush_every:
            return False
        self.flush()
        return True

    def flush(self) -> int:
        """Fold every buffered row into the aggregates and drop the buffer.

        Aggregate views (bytes by kind, cycle and query, messages by kind
        and query, and :meth:`query_receivers`) are unaffected -- they
        answer identically before and after a flush.  Returns the number of
        rows dropped.
        """
        self._catch_up()
        receivers = self._flushed_receivers
        for _cycle, _sender, receiver, kind, _size, query_id in self._rows:
            if query_id is not None:
                key = (query_id, kind)
                bucket = receivers.get(key)
                if bucket is None:
                    bucket = receivers[key] = set()
                bucket.add(receiver)
        dropped = len(self._rows)
        self._rows.clear()
        self._aggregated = 0
        self._flushed_rows += dropped
        self._cycles_since_flush = 0
        return dropped

    @property
    def buffered_rows(self) -> int:
        """Rows recorded since the last flush (what :meth:`flush` would drop).

        For callers with no cycle boundary to tick :meth:`maybe_flush` at
        (the service runtime folds by row count instead).
        """
        return len(self._rows)

    # -- aggregate views ------------------------------------------------------

    @property
    def records(self) -> List[TrafficRecord]:
        """Materialized rows -- only those retained since the last flush.

        Without ``flush_every`` this is every recorded transmission (the
        seed behaviour).  With flushing enabled, callers needing full
        message-level history should read it between flush boundaries.
        """
        return [TrafficRecord(*row) for row in self._rows]

    def query_receivers(self, query_id: int, kind: str) -> set:
        """Distinct receivers of one query's traffic of one kind.

        Scans the raw rows without materializing :class:`TrafficRecord`
        objects -- this backs per-query metrics (users reached) that would
        otherwise allocate one object per recorded message per call.  Exact
        across flushes: flushed rows contribute through the folded
        receiver sets.
        """
        out = {
            row[2] for row in self._rows if row[5] == query_id and row[3] == kind
        }
        flushed = self._flushed_receivers.get((query_id, kind))
        if flushed:
            out |= flushed
        return out

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
