"""Wire-size model for gossip traffic.

The paper's bandwidth results (Section 3.3.2) are derived from a concrete
byte-level cost model rather than from serialized Java objects:

* a user id is 4 bytes;
* an item (URL) is identified by its 128-bit MD4 hash: 16 bytes;
* a tag is a 16-byte string;
* therefore a tagging action ``(user implied, item, tag)`` costs 36 bytes
  (16 + 16 + 4 for the tagging user's id);
* a profile digest is a 20 Kbit Bloom filter: 2,500 bytes;
* a score (similarity or partial relevance) is a 4-byte integer.

This module centralizes those constants and the size formulas for every
message type so that experiments and tests agree on the accounting.
:func:`total_bytes` maps each transport :class:`~repro.simulator.transport.Message`
to its wire size through these formulas, so the transport layer's accounting
hook and the tests share a single cost model.
"""

from __future__ import annotations

from ..simulator.transport import (
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    FullProfilePush,
    FullProfileRequest,
    Message,
    QueryForward,
    QueryResult,
    RemainingReturn,
)

USER_ID_BYTES = 4
ITEM_ID_BYTES = 16
TAG_BYTES = 16
SCORE_BYTES = 4
#: One tagging action on the wire: item hash + tag string + tagging user id.
TAGGING_ACTION_BYTES = ITEM_ID_BYTES + TAG_BYTES + USER_ID_BYTES
#: A 20 Kbit Bloom-filter digest.
DIGEST_BYTES = 20_000 // 8


def digest_message_size(num_digests: int) -> int:
    """Size of a message carrying ``num_digests`` profile digests.

    Each digest travels with the 4-byte id of the user it describes (the
    contact information the paper mentions but elides).
    """
    if num_digests < 0:
        raise ValueError("num_digests must be non-negative")
    return num_digests * (DIGEST_BYTES + USER_ID_BYTES)


def tagging_actions_size(num_actions: int) -> int:
    """Size of a batch of tagging actions (common items or full profiles)."""
    if num_actions < 0:
        raise ValueError("num_actions must be non-negative")
    return num_actions * TAGGING_ACTION_BYTES


def remaining_list_size(num_users: int) -> int:
    """Size of a remaining list: one user id per entry."""
    if num_users < 0:
        raise ValueError("num_users must be non-negative")
    return num_users * USER_ID_BYTES


def partial_result_size(num_items: int, num_contributors: int) -> int:
    """Size of a partial result message sent back to the querier.

    The message carries, per item, its identifier and its 4-byte partial
    relevance score, plus the ids of the users whose profiles were used to
    build the list (the querier uses those to track result quality and to
    avoid double counting).
    """
    if num_items < 0 or num_contributors < 0:
        raise ValueError("sizes must be non-negative")
    return num_items * (ITEM_ID_BYTES + SCORE_BYTES) + num_contributors * USER_ID_BYTES


def _query_result_size(message: QueryResult) -> int:
    partial = message.partial
    return partial_result_size(len(partial.scores), len(partial.contributors))


#: Exact-type size table (a dict lookup: total_bytes sits on the accounting
#: hot path, called once per payload-bearing message).
_MESSAGE_SIZERS = {
    CommonItemsReply: lambda m: 0 if m.actions is None else tagging_actions_size(len(m.actions)),
    DigestAdvertisement: lambda m: digest_message_size(len(m.digests)),
    FullProfilePush: lambda m: 0 if m.profile is None else tagging_actions_size(len(m.profile)),
    QueryForward: lambda m: remaining_list_size(len(m.remaining)),
    RemainingReturn: lambda m: remaining_list_size(len(m.remaining)),
    QueryResult: _query_result_size,
    CommonItemsRequest: lambda m: 0,
    FullProfileRequest: lambda m: 0,
}


def total_bytes(message: Message) -> int:
    """Wire size of one transport message under the paper's cost model.

    Control messages (the two request types) cost 0 bytes -- the paper's
    accounting only charges payloads -- as do the failure replies whose
    payload is ``None`` (the seed never accounted those non-exchanges).
    """
    sizer = _MESSAGE_SIZERS.get(type(message))
    if sizer is None:
        raise TypeError(f"unknown message type {type(message).__name__}")
    return sizer(message)


def profile_storage_bytes(num_actions: int) -> int:
    """Bytes needed to store a profile of ``num_actions`` tagging actions."""
    return tagging_actions_size(num_actions)
