"""P3Q core: configuration, node, query state, eager protocol, analysis."""

from .analysis import (
    DrainTrace,
    alpha_sweep,
    cycles_to_complete,
    max_partial_results,
    max_remaining_list_messages,
    max_users_involved,
    simulate_remaining_list_drain,
)
from .config import P3QConfig, StorageSpec
from .eager import EagerGossipProtocol
from .node import P3QNode
from .protocol import P3QSimulation
from .query import CycleSnapshot, ForwardedQueryState, PartialResult, QuerySession
from .scoring import partial_scores

__all__ = [
    "CycleSnapshot",
    "DrainTrace",
    "EagerGossipProtocol",
    "ForwardedQueryState",
    "P3QConfig",
    "P3QNode",
    "P3QSimulation",
    "PartialResult",
    "QuerySession",
    "StorageSpec",
    "alpha_sweep",
    "cycles_to_complete",
    "max_partial_results",
    "max_remaining_list_messages",
    "max_users_involved",
    "partial_scores",
    "simulate_remaining_list_drain",
]
