"""Deterministic random number management for simulations.

Each simulation owns a root seed; every node derives its own independent
``random.Random`` stream from that seed and its node id.  This keeps runs
reproducible regardless of the order in which nodes execute, which matters
when comparing scenarios (e.g. with/without churn) that share a seed.
"""

from __future__ import annotations

import random
from typing import Dict


def derive_rng(root_seed: int, *path: object) -> random.Random:
    """A fresh deterministic stream named by ``(root_seed, *path)``.

    Pure: equal coordinates give equal streams in every process, with no
    shared state to advance.  This is the primitive behind the
    simtest/scenario seed derivations.
    """
    return random.Random("/".join(str(part) for part in (root_seed,) + path))


class SeededRngFactory:
    """Hands out per-node / per-purpose deterministic RNG streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def for_purpose(self, name: str) -> random.Random:
        """RNG stream for a named global purpose (bootstrap, churn, ...)."""
        return self._get(f"purpose:{name}")

    def _get(self, key: str) -> random.Random:
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(f"{self.root_seed}/{key}")
            self._streams[key] = stream
        return stream
