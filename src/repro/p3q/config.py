"""Configuration of a P3Q deployment / simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..simulator.conditions import (
    AsymmetrySpec,
    PartitionSpec,
    validate_delay_cycles,
    validate_fraction,
)

#: Storage budgets can be uniform (one int) or heterogeneous (per-user map).
StorageSpec = Union[int, Mapping[int, int]]


@dataclass(frozen=True)
class P3QConfig:
    """Protocol and simulation parameters.

    Defaults follow the paper where a single value is given, scaled where the
    paper uses values tied to the 10,000-user trace.
    """

    #: Personal network size ``s`` (paper: 1000 on the 10,000-user trace).
    network_size: int = 100
    #: Stored-profile budget ``c`` -- uniform int or per-user mapping
    #: (paper scenarios: 10..1000 uniform, or Poisson-distributed).
    storage: StorageSpec = 10
    #: Random view size ``r`` (paper: 10).
    random_view_size: int = 10
    #: Number of results per query (paper: top-10).
    k: int = 10
    #: Remaining-list split parameter (paper default and optimum: 0.5).
    alpha: float = 0.5
    #: Max number of stored-profile digests advertised per gossip (paper: 50).
    exchange_size: int = 50
    #: Bloom filter sizing for the digests (paper: 20 Kbit / 14 hashes give
    #: ~0.1% false positives at ~250 items).  Tests may shrink this.
    digest_bits: int = 20_000
    digest_hashes: int = 14
    #: Root seed for all deterministic randomness.
    seed: int = 0
    #: Use the 3-step digest/common-items/full-profile exchange.  Setting this
    #: to False ships full profiles immediately (bandwidth ablation).
    three_step_exchange: bool = True
    # Network conditions (see repro.simulator.conditions); all four at their
    # defaults is the seed-identical direct wire.
    #: Per-message drop probability.
    loss_rate: float = 0.0
    #: Maximum per-exchange delay in cycles.
    delay_cycles: int = 0
    #: Network partition condition.
    partition: Optional[PartitionSpec] = None
    #: Asymmetric-link / NAT condition.
    asymmetry: Optional[AsymmetrySpec] = None
    #: Seeded fraction of nodes that gossip digests but never answer
    #: common-items requests, profile requests or query forwards.
    free_rider_fraction: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Validate every field once, centrally.

        All range checks live here (constructors downstream trust a config
        that survived construction); error messages name the offending
        field and the accepted range.  Raises ``ValueError`` for
        out-of-range values and ``TypeError`` for wrong condition spec
        types.
        """
        positive = (
            ("network_size", self.network_size),
            ("random_view_size", self.random_view_size),
            ("k", self.k),
            ("exchange_size", self.exchange_size),
            ("digest_bits", self.digest_bits),
            ("digest_hashes", self.digest_hashes),
        )
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha!r}")
        if isinstance(self.storage, int):
            if self.storage < 0:
                raise ValueError(f"storage must be non-negative, got {self.storage!r}")
        else:
            for user_id, budget in self.storage.items():
                if budget < 0:
                    raise ValueError(
                        f"storage must be non-negative for every user; "
                        f"user {user_id} has {budget!r}"
                    )
        validate_fraction("loss_rate", self.loss_rate)
        validate_delay_cycles(self.delay_cycles)
        if self.partition is not None and not isinstance(self.partition, PartitionSpec):
            raise TypeError(
                f"partition must be a PartitionSpec or None, got {self.partition!r}"
            )
        if self.asymmetry is not None and not isinstance(self.asymmetry, AsymmetrySpec):
            raise TypeError(
                f"asymmetry must be an AsymmetrySpec or None, got {self.asymmetry!r}"
            )
        validate_fraction("free_rider_fraction", self.free_rider_fraction)

    def storage_for(self, user_id: int) -> int:
        """The stored-profile budget ``c`` of one user."""
        if isinstance(self.storage, int):
            return self.storage
        try:
            return int(self.storage[user_id])
        except KeyError:
            raise KeyError(f"no storage budget configured for user {user_id}") from None
