"""Gossip substrate: digests, views, peer sampling and the lazy exchange.

The digest and exchange modules run on the performance layer introduced with
the bit-packed Bloom filter and interned profiles; ``docs/ARCHITECTURE.md``
documents the layering (data -> bloom/similarity -> gossip -> p3q ->
experiments) and the invariants the fast paths rely on.
"""

from .digest import DigestCache, ProfileDigest, make_digest
from .interfaces import GossipPeer
from .peer_sampling import PeerSamplingProtocol
from .profile_exchange import DEFAULT_EXCHANGE_SIZE, LazyExchangeProtocol
from .sizes import (
    DIGEST_BYTES,
    ITEM_ID_BYTES,
    SCORE_BYTES,
    TAG_BYTES,
    TAGGING_ACTION_BYTES,
    USER_ID_BYTES,
    digest_message_size,
    partial_result_size,
    profile_length,
    profile_storage_bytes,
    remaining_list_size,
    tagging_actions_size,
)
from .views import NeighbourEntry, PersonalNetwork, RandomView

__all__ = [
    "DEFAULT_EXCHANGE_SIZE",
    "DIGEST_BYTES",
    "DigestCache",
    "GossipPeer",
    "ITEM_ID_BYTES",
    "LazyExchangeProtocol",
    "NeighbourEntry",
    "PeerSamplingProtocol",
    "PersonalNetwork",
    "ProfileDigest",
    "RandomView",
    "SCORE_BYTES",
    "TAG_BYTES",
    "TAGGING_ACTION_BYTES",
    "USER_ID_BYTES",
    "digest_message_size",
    "make_digest",
    "partial_result_size",
    "profile_length",
    "profile_storage_bytes",
    "remaining_list_size",
    "tagging_actions_size",
]
