"""Baselines: the centralized network-aware top-k reference."""

from .centralized import CentralizedTopK

__all__ = ["CentralizedTopK"]
