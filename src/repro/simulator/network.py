"""Simulated network: node registry, reachability, churn, traffic accounting.

The simulation follows PeerSim's cycle-driven model.  All peer interaction
flows through the attached :class:`~repro.simulator.transport.Transport` as
explicit messages; the default :class:`~repro.simulator.transport.DirectTransport`
reproduces synchronous, lossless exchanges with no latency below the cycle
granularity, while lossy/latency transports perturb delivery without any
protocol change.  What the network itself provides is:

* a registry of nodes with an online/offline flag (churn);
* the guard that an exchange with an offline peer fails, so protocols must
  handle unavailable neighbours;
* the :class:`~repro.simulator.stats.StatsCollector` that the transport's
  accounting hook (:meth:`~repro.simulator.transport.Transport.account`)
  records every priced transmission into.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .node import Node
from .stats import StatsCollector
from .transport import DirectTransport, Transport

#: A callback receiving the ids of profiles that changed during a cycle.
DirtyProfileListener = Callable[[FrozenSet[int]], None]


class UnknownNodeError(KeyError):
    """Raised when addressing a node id that was never registered."""


class Network:
    """Registry of simulated nodes plus churn state and traffic accounting."""

    def __init__(
        self,
        stats: Optional[StatsCollector] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self._nodes: Dict[int, Node] = {}
        self._online: Dict[int, bool] = {}
        self.stats = stats or StatsCollector()
        #: The wire: every peer interaction is a message routed through here.
        self.transport = transport or DirectTransport()
        self.transport.attach(self)
        #: The engine keeps this up to date so that nodes can attribute
        #: traffic to the cycle in which it happened.
        self.current_cycle = 0
        #: Ids of users whose profiles changed since the last cycle boundary.
        #: The engine drains this set at the end of every cycle and fans it
        #: out to the registered listeners (digest caches, metrics) so that
        #: incremental state is invalidated in O(changes), not O(N).
        self._dirty_profiles: Set[int] = set()
        self._dirty_listeners: List[DirtyProfileListener] = []
        #: Cached sorted online-id tuple; ``None`` after any membership or
        #: churn change.  ``online_ids`` runs once per cycle over the whole
        #: population, and between churn events the answer never changes.
        self._online_cache: Optional[Tuple[int, ...]] = None
        #: Nodes that *may* hold eager-phase work (an own query session or a
        #: forwarded remaining list).  Nodes register themselves when such
        #: state is created; the eager scheduler filters this set instead of
        #: scanning the whole population every cycle, which at N=100,000
        #: with a handful of queries is the difference between O(queries)
        #: and O(N) per eager cycle.
        self._eager_work: Set[int] = set()
        #: Nodes that ever opened an own query session (snapshot closing).
        self._session_holders: Set[int] = set()

    # -- eager work registry ---------------------------------------------------

    def note_eager_work(self, node_id: int) -> None:
        """Register that a node acquired (potential) eager-phase work."""
        self._eager_work.add(node_id)

    def note_query_session(self, node_id: int) -> None:
        """Register that a node opened an own query session."""
        self._session_holders.add(node_id)
        self._eager_work.add(node_id)

    def eager_work_candidates(self) -> List[int]:
        """Sorted ids of nodes that may hold eager work (superset of truth)."""
        return sorted(self._eager_work)

    def retire_eager_work(self, node_id: int) -> None:
        """Drop a node from the candidate set (it proved idle while online)."""
        self._eager_work.discard(node_id)

    def session_holders(self) -> List[int]:
        """Sorted ids of nodes that ever opened a query session."""
        return sorted(self._session_holders)

    # -- incremental-runtime dirty set ----------------------------------------

    def mark_profiles_dirty(self, user_ids: Iterable[int]) -> None:
        """Record that the given users' profiles changed this cycle."""
        self._dirty_profiles.update(user_ids)

    def add_profile_dirty_listener(self, listener: DirtyProfileListener) -> None:
        """Register a callback for the per-cycle dirty-profile flush."""
        self._dirty_listeners.append(listener)

    def flush_dirty_profiles(self) -> FrozenSet[int]:
        """Drain the dirty set and fan it out to the listeners.

        Called by the engine at every cycle boundary; returns the flushed
        set (empty on quiet cycles, which cost nothing).
        """
        if not self._dirty_profiles:
            return frozenset()
        dirty = frozenset(self._dirty_profiles)
        self._dirty_profiles.clear()
        for listener in self._dirty_listeners:
            listener(dirty)
        return dirty

    # -- registration ---------------------------------------------------------

    def add_node(self, node: Node, online: bool = True) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self._nodes[node.node_id] = node
        self._online[node.node_id] = online
        self._online_cache = None
        node.attach(self)

    # -- lookup ---------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def try_contact(self, node_id: int) -> Optional[Node]:
        """The node if it exists and is online, else ``None``.

        This is the call protocols use for best-effort exchanges: an offline
        gossip partner is simply skipped, as in the paper's churn evaluation.
        """
        if node_id not in self._nodes:
            return None
        if not self._online[node_id]:
            return None
        return self._nodes[node_id]

    def is_online(self, node_id: int) -> bool:
        return self._online.get(node_id, False)

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def online_ids(self) -> List[int]:
        cached = self._online_cache
        if cached is None:
            cached = self._online_cache = tuple(
                sorted(nid for nid, online in self._online.items() if online)
            )
        return list(cached)

    # -- churn ----------------------------------------------------------------

    def depart(self, node_ids: Iterable[int]) -> None:
        """Take the given nodes offline (simultaneous massive departure)."""
        for node_id in node_ids:
            if node_id not in self._nodes:
                raise UnknownNodeError(node_id)
            if self._online[node_id]:
                self._online[node_id] = False
                self._online_cache = None
                self._nodes[node_id].on_departure()

    def rejoin(self, node_ids: Iterable[int]) -> None:
        """Bring previously departed nodes back online."""
        for node_id in node_ids:
            if node_id not in self._nodes:
                raise UnknownNodeError(node_id)
            if not self._online[node_id]:
                self._online[node_id] = True
                self._online_cache = None
                self._nodes[node_id].on_join()
