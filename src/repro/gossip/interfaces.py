"""Structural interface that gossip protocols expect from a node.

The lazy and eager protocols are written against this minimal surface so
that they can be unit-tested with lightweight fakes and reused by any node
implementation (the full :class:`~repro.p3q.node.P3QNode`, the store-all
baseline node, ...).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Protocol, runtime_checkable

from ..data.models import UserProfile
from .digest import DigestCache, ProfileDigest
from .views import PersonalNetwork, RandomView

if TYPE_CHECKING:  # pragma: no cover
    from ..simulator.transport import Envelope, Message


@runtime_checkable
class GossipPeer(Protocol):
    """What a node must expose to participate in P3Q gossip.

    Peers are addressable on the wire: the transport delivers every message
    to :meth:`handle_message`, and a node without that method is simply
    unreachable (the seed's ``isinstance(node, GossipPeer)`` guard, moved to
    the transport's resolution step).
    """

    node_id: int
    profile: UserProfile
    personal_network: PersonalNetwork
    random_view: RandomView
    #: Digest and probe cache the lazy exchange prices this node's probes in.
    digest_cache: DigestCache

    def handle_message(self, envelope: "Envelope") -> Optional["Message"]:
        """Process one delivered transport message; return the reply, if any."""

    @property
    def rng(self) -> random.Random:
        """The node's deterministic RNG stream."""

    def own_digest(self) -> ProfileDigest:
        """Digest of the node's own (current) profile."""

    def stored_digest_sample(self, limit: int) -> List[ProfileDigest]:
        """Digests advertised in a lazy gossip message.

        A random subset (at most ``limit``) of the digests of locally stored
        neighbour profiles, always including the node's own digest.
        """

    def full_profile_of(self, subject_id: int) -> Optional[UserProfile]:
        """A copy of ``subject_id``'s profile if stored locally, else ``None``."""
