"""Base class for simulated nodes.

A node is the simulation-side stand-in for "the user and her underlying
machine".  Concrete protocols (peer sampling, lazy gossip, P3Q) subclass
:class:`Node` and implement ``on_cycle(cycle, phase)``, which the engine
calls once per cycle of each online node; ``phase`` distinguishes logical
sub-protocols running at different frequencies (P3Q uses ``"lazy"`` and
``"eager"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .network import Network


class Node:
    """A participant in the cycle-driven simulation."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._network: Optional["Network"] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by the network when the node is registered."""
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        return self._network

    # -- protocol hooks -------------------------------------------------------

    def on_departure(self) -> None:
        """Hook invoked when the node leaves the system (churn)."""

    def on_join(self) -> None:
        """Hook invoked when the node (re)joins the system."""
