"""Network conditions: what the wire does to a message besides delivering it.

The paper's evaluation assumes benign churn and uniform, lossless links.
This module supplies everything else as *composable, deterministic*
conditions that :class:`~repro.simulator.transport.Transport` evaluates in a
fixed order.  A transport with no condition is the direct wire; each
condition below perturbs exactly the legs it overrides:

* :class:`NatBlock` -- a seeded ``nat_fraction`` of nodes refuses *inbound*
  connections (NAT without hole punching): contacting them fails like
  contacting an offline node, before any bytes are charged, while their own
  outbound traffic flows normally -- including the replies to their own
  round-trips, synchronous or deferred.
* :class:`PartitionCut` -- a seeded split of the population into ``>= 2``
  components between a split cycle and a heal cycle (global engine cycles).
  While the cut is active, every freshly sent message whose endpoints sit on
  opposite sides is dropped -- and, like a lossy drop, still charged to its
  sender (the connection attempt happens; the paper's cost model charges at
  send time).  Envelopes already in flight across the cut are *held* until
  the heal cycle instead of being lost: their bytes were spent exactly once,
  and delivery resumes when the components merge.
* :class:`Loss` -- every message is independently dropped with a seeded
  per-message probability.
* :class:`Delay` -- deferrable (top-level exchange) messages are delayed by
  a seeded ``0..delay_cycles`` engine cycles.
* :class:`DegradedLinks` -- per-*direction* link degradation.  A seeded
  fraction of ordered ``(sender, receiver)`` pairs is marked degraded; a
  degraded direction adds an extra loss roll and an extra delivery delay on
  top of the base conditions.  Because directions are sampled independently,
  ``a -> b`` can be perfect while ``b -> a`` loses every message.

:func:`build_conditions` derives the tuple from the five configuration
values ``(loss_rate, delay_cycles, partition, asymmetry, seed)``; a condition
whose rate is zero is not built at all, so it consumes no randomness and the
run is bit-identical to the direct wire.  Every random decision is drawn
from the condition's own seeded stream -- independent of the node RNGs and
of every other condition.

:class:`PartitionSpec` and :class:`AsymmetrySpec` are the frozen config
objects (carried by ``P3QConfig`` and ``ScenarioSpec``) with hardened
constructors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .network import Network
    from .transport import Envelope, Message


def validate_fraction(name: str, value: float) -> float:
    """A rate or population/link fraction must be a finite real in [0, 1].

    NaN would silently disable every comparison-based roll and booleans are
    almost certainly a mixed-up argument, so both are rejected rather than
    accepted as degenerate probabilities.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def validate_delay_cycles(delay_cycles: int) -> int:
    """A delay bound must be a non-negative integer.

    A float (even an integral one) would only blow up cycles later inside
    ``randint``, mid-simulation; failing at construction keeps the error at
    the configuration site.
    """
    if isinstance(delay_cycles, bool) or not isinstance(delay_cycles, int):
        raise TypeError(f"delay_cycles must be an int, got {delay_cycles!r}")
    if delay_cycles < 0:
        raise ValueError(f"delay_cycles must be non-negative, got {delay_cycles!r}")
    return delay_cycles


def _validate_count(name: str, value: int, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class PartitionSpec:
    """A network partition active over ``[split_cycle, heal_cycle)``.

    Cycles are *global* engine cycles (counted across the lazy and eager
    phases).  The population is dealt into ``components`` groups by a seeded
    shuffle, so components are balanced and every component is non-empty
    whenever the population allows.
    """

    components: int = 2
    split_cycle: int = 0
    heal_cycle: int = 1

    def __post_init__(self) -> None:
        _validate_count("components", self.components, 2)
        _validate_count("split_cycle", self.split_cycle, 0)
        _validate_count("heal_cycle", self.heal_cycle, 0)
        if self.heal_cycle <= self.split_cycle:
            raise ValueError(
                "heal_cycle must come strictly after split_cycle, got "
                f"split={self.split_cycle!r}, heal={self.heal_cycle!r}"
            )


@dataclass(frozen=True, slots=True)
class AsymmetrySpec:
    """Per-direction link degradation plus NAT-like unreachable-inbound nodes.

    A ``degraded_fraction`` of ordered node pairs suffers an extra
    ``link_loss_rate`` drop roll and up to ``link_delay_cycles`` extra delay
    per deferrable message; a ``nat_fraction`` of nodes rejects all inbound
    connections.  The all-zero spec (``is_null``) imposes nothing and
    consumes no randomness.
    """

    degraded_fraction: float = 0.0
    link_loss_rate: float = 0.0
    link_delay_cycles: int = 0
    nat_fraction: float = 0.0

    def __post_init__(self) -> None:
        validate_fraction("degraded_fraction", self.degraded_fraction)
        validate_fraction("link_loss_rate", self.link_loss_rate)
        validate_delay_cycles(self.link_delay_cycles)
        validate_fraction("nat_fraction", self.nat_fraction)

    @property
    def is_null(self) -> bool:
        """True when this spec perturbs nothing at all."""
        return (
            self.degraded_fraction == 0.0
            and self.link_loss_rate == 0.0
            and self.link_delay_cycles == 0
            and self.nat_fraction == 0.0
        )


# ----------------------------------------------------------------- conditions


class Condition:
    """One wire condition; subclasses override the legs they perturb.

    The transport asks every attached condition, in tuple order, at four
    points: :meth:`blocks_inbound` before accounting, :meth:`drops` and
    :meth:`delay` after it, and :meth:`hold` when a deferred envelope comes
    due.  The defaults perturb nothing.
    """

    network: Optional["Network"] = None

    def attach(self, network: "Network") -> None:
        """Bind to the network (population and clock are read lazily: the
        transport is attached before the nodes are registered)."""
        self.network = network

    def blocks_inbound(self, sender: int, receiver: int) -> bool:
        """True when the receiver cannot accept this connection at all.

        Checked before accounting: like contacting an offline node, the
        connection never opens, so no bytes are charged.
        """
        return False

    def drops(self, message: "Message", sender: int, receiver: int) -> bool:
        """True when this (already accounted) message is lost on the wire."""
        return False

    def delay(self, message: "Message", sender: int, receiver: int) -> int:
        """Cycles of delivery delay this condition adds to the message."""
        return 0

    def hold(self, envelope: "Envelope") -> int:
        """Cycles a *due* deferred envelope must stay in flight (0: deliver)."""
        return 0


class NatBlock(Condition):
    """A seeded fraction of nodes refuses inbound connections."""

    def __init__(self, fraction: float, seed: int) -> None:
        self.fraction = fraction
        self._seed = seed
        self._ids: Optional[FrozenSet[int]] = None

    def ids(self) -> FrozenSet[int]:
        """Ids of the NAT'd nodes (stable, seeded; sampled on first use)."""
        if self._ids is None:
            ids = self.network.node_ids()
            count = int(round(self.fraction * len(ids)))
            rng = random.Random(f"{self._seed}/transport/nat")
            self._ids = frozenset(rng.sample(ids, count))
        return self._ids

    def blocks_inbound(self, sender: int, receiver: int) -> bool:
        return receiver in self.ids()


class PartitionCut(Condition):
    """Drops fresh messages across an active cut; holds in-flight ones."""

    def __init__(self, spec: PartitionSpec, seed: int) -> None:
        self.spec = spec
        self._seed = seed
        #: node id -> component index; dealt on first use (see ``attach``).
        self._components: Optional[Dict[int, int]] = None
        #: Messages dropped at the active cut (accounted drops).
        self.cut_drops = 0

    def component(self, node_id: int) -> int:
        """The partition component a node belongs to."""
        components = self._components
        if components is None:
            ids = self.network.node_ids()
            random.Random(f"{self._seed}/transport/partition").shuffle(ids)
            k = self.spec.components
            components = self._components = {
                nid: index % k for index, nid in enumerate(ids)
            }
        return components[node_id]

    def active(self) -> bool:
        """Whether the cut is up at the network's current cycle."""
        spec = self.spec
        return spec.split_cycle <= self.network.current_cycle < spec.heal_cycle

    def _severs(self, sender: int, receiver: int) -> bool:
        return self.active() and self.component(sender) != self.component(receiver)

    def drops(self, message: "Message", sender: int, receiver: int) -> bool:
        if self._severs(sender, receiver):
            self.cut_drops += 1
            return True
        return False

    def hold(self, envelope: "Envelope") -> int:
        if self._severs(envelope.sender, envelope.receiver):
            return self.spec.heal_cycle - self.network.current_cycle
        return 0


class Loss(Condition):
    """Drops each message independently with probability ``rate``."""

    def __init__(self, rate: float, seed: int) -> None:
        self.rate = rate
        self.rng = random.Random(f"{seed}/transport/loss")

    def drops(self, message: "Message", sender: int, receiver: int) -> bool:
        return self.rng.random() < self.rate


class Delay(Condition):
    """Delays deferrable messages by a seeded ``0..cycles`` engine cycles.

    Only ``DEFERRABLE`` messages are ever queued; the control sub-requests
    of an exchange stay synchronous (see the transport module docstring).
    """

    def __init__(self, cycles: int, seed: int) -> None:
        self.cycles = cycles
        self.rng = random.Random(f"{seed}/transport/delay")

    def delay(self, message: "Message", sender: int, receiver: int) -> int:
        return self.rng.randint(0, self.cycles) if message.DEFERRABLE else 0


class DegradedLinks(Condition):
    """Extra loss and delay on a seeded fraction of ordered node pairs."""

    def __init__(self, spec: AsymmetrySpec, seed: int) -> None:
        self.spec = spec
        self._seed = seed
        #: Memoized per-(sender, receiver) decisions.  Each ordered pair gets
        #: its own hash-seeded stream, so the decision does not depend on
        #: the order in which links are first exercised.
        self._degraded: Dict[Tuple[int, int], bool] = {}
        self.loss_rng = random.Random(f"{seed}/transport/asymmetry/loss")
        self.delay_rng = random.Random(f"{seed}/transport/asymmetry/delay")

    def degraded(self, sender: int, receiver: int) -> bool:
        key = (sender, receiver)
        hit = self._degraded.get(key)
        if hit is None:
            stream = random.Random(
                f"{self._seed}/transport/asymmetry/link/{sender}/{receiver}"
            )
            hit = self._degraded[key] = stream.random() < self.spec.degraded_fraction
        return hit

    def drops(self, message: "Message", sender: int, receiver: int) -> bool:
        rate = self.spec.link_loss_rate
        if rate > 0.0 and self.degraded(sender, receiver):
            return self.loss_rng.random() < rate
        return False

    def delay(self, message: "Message", sender: int, receiver: int) -> int:
        cycles = self.spec.link_delay_cycles
        if cycles > 0 and message.DEFERRABLE and self.degraded(sender, receiver):
            return self.delay_rng.randint(1, cycles)
        return 0


def build_conditions(
    loss_rate: float = 0.0,
    delay_cycles: int = 0,
    partition: Optional[PartitionSpec] = None,
    asymmetry: Optional[AsymmetrySpec] = None,
    seed: int = 0,
) -> Tuple[Condition, ...]:
    """The condition tuple a configuration describes, in evaluation order.

    NAT block -> partition cut -> base loss -> base delay -> degraded links:
    drops short-circuit in that order and delays sum in that order.  A
    condition at zero rate is left out, so the all-zero configuration yields
    the empty tuple -- the direct wire.
    """
    validate_fraction("loss_rate", loss_rate)
    validate_delay_cycles(delay_cycles)
    if partition is not None and not isinstance(partition, PartitionSpec):
        raise TypeError(f"partition must be a PartitionSpec, got {partition!r}")
    if asymmetry is not None and not isinstance(asymmetry, AsymmetrySpec):
        raise TypeError(f"asymmetry must be an AsymmetrySpec, got {asymmetry!r}")
    conditions = []
    if asymmetry is not None and asymmetry.nat_fraction > 0.0:
        conditions.append(NatBlock(asymmetry.nat_fraction, seed))
    if partition is not None:
        conditions.append(PartitionCut(partition, seed))
    if loss_rate > 0.0:
        conditions.append(Loss(loss_rate, seed))
    if delay_cycles > 0:
        conditions.append(Delay(delay_cycles, seed))
    if asymmetry is not None and asymmetry.degraded_fraction > 0.0 and (
        asymmetry.link_loss_rate > 0.0 or asymmetry.link_delay_cycles > 0
    ):
        conditions.append(DegradedLinks(asymmetry, seed))
    return tuple(conditions)
