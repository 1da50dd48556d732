"""The wire codec: every transport :class:`Message` as a length-prefixed frame.

The simulator hands message *objects* between nodes; the service runtime
hands **bytes**.  This module is the layer in between.  It holds one wire
format and one description of the message catalogue:

* :data:`MESSAGE_TABLE` -- ``Message type -> (tag, ((attribute, kind),
  ...))``.  A :class:`_Kind` (``_SINT``, ``_DIGESTS``, ...) says once how
  one sort of field value is written and read; objects nested in messages
  (queries, partial results, profiles) are rows of the same shape.
  Everything below walks this table, so a new ``Message`` subclass is one
  row here plus one price in :mod:`repro.gossip.sizes`.
* :class:`BinaryWireCodec` -- **the** wire codec: struct-packed headers,
  varint/zigzag integer fields, and Bloom digests as raw little-endian
  byte rows (:meth:`BloomFilter.row_bytes`, serialised once per filter
  whoever sends it).  Received rows resolve through the process-wide
  content-keyed intern table
  (:func:`repro.gossip.digest.intern_digest`), so however
  many nodes decode a digest there is one object for it.  Only a pull
  reply carries rows (swaps and offers carry descriptors), so the codec
  keeps no per-link state: a body encodes the same on every link, and
  :class:`~repro.service.trace.ServiceTrace` writes message bodies into
  its trace file with it.

Byte *accounting* always uses :func:`repro.gossip.sizes.total_bytes` on the
message object, never the frame length, so service-mode traffic numbers
stay comparable with the simulator's whatever the wire bytes are.

Design rules:

* **Total coverage, loudly enforced.**  :data:`MESSAGE_TABLE` must cover
  every concrete subclass of :class:`Message`; encoding an unregistered
  type raises ``TypeError`` immediately and the round-trip property tests
  enumerate ``Message.__subclasses__()`` so a new message type added
  without a row fails the suite, mirroring how :mod:`repro.gossip.sizes`
  pins its size table.
* **Process-portable payloads.**  Interned action ids are process-local
  (:mod:`repro.data.interning`), so :class:`CommonItemsReply` travels as
  explicit ``(item, tag)`` pairs and is re-interned on decode; Bloom
  filters travel as their geometry, count and wire row.  Frames decode
  identically in another process (the UDP transport) and in-process (the
  loopback).
* **Faithful round-trips.**  ``decode_message(encode_message(m))`` must
  compare equal to ``m`` field by field and price identically under
  ``total_bytes`` -- the property tests assert both, through the trace
  file (message bodies) and through runtime frames.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from ..data.interning import action_of, intern_action
from ..data.models import UserProfile
from ..data.queries import Query
from ..gossip.digest import intern_digest
from ..p3q.query import PartialResult
from ..simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    LOST,
    REPLY_DROPPED,
    UNREACHABLE,
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    Envelope,
    FullProfilePush,
    FullProfileRequest,
    Message,
    QueryForward,
    QueryResult,
    RemainingReturn,
)

#: Length-prefix format: one unsigned 32-bit big-endian body length.
_LEN = struct.Struct(">I")

#: Conservative single-datagram budget for the UDP transport (beneath the
#: common 64 KiB UDP payload ceiling, with headroom for the prefix).  The
#: in-process loopback has no such limit; the UDP wire refuses larger
#: frames loudly instead of truncating them.
MAX_DATAGRAM_BYTES = 60_000


def _frame(body: bytearray) -> bytes:
    """One length-prefixed frame around an already-encoded body."""
    return _LEN.pack(len(body)) + body


def split_frames(payload: bytes) -> Tuple[List[bytes], bytes]:
    """Split a wire payload into raw frame bodies + undecodable leftover.

    A datagram written by the :class:`~repro.service.runtime.FrameBatcher`
    carries one or more whole frames back to back.  Anything that does not
    parse as complete frames -- a truncated tail, a garbage prefix claiming
    an absurd length -- is returned as ``leftover`` for the caller to drop
    loudly.
    """
    bodies: List[bytes] = []
    view = memoryview(payload)
    offset = 0
    total = len(payload)
    while total - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(view, offset)
        end = offset + _LEN.size + length
        if total < end:
            break
        bodies.append(payload[offset + _LEN.size : end])
        offset = end
    if offset == 0:
        return bodies, payload
    return bodies, bytes(view[offset:])


# ---------------------------------------------------------------- primitives

#: IEEE-754 double, little-endian (partial-result scores).
_F64 = struct.Struct("<d")

#: Frame op bytes and the names the runtime dispatches on.
_OP_REQ = 0x01
_OP_REP = 0x02
_OP_SEND = 0x03
_OP_NAMES = {_OP_REQ: "req", _OP_REP: "rep", _OP_SEND: "send"}

#: Delivery statuses as 1-byte indexes (replies only ever carry one of
#: these; an unknown status fails encode loudly rather than truncating).
_STATUS_TABLE = (DELIVERED, DROPPED, REPLY_DROPPED, DEFERRED, UNREACHABLE, LOST)
_STATUS_INDEX = {status: index for index, status in enumerate(_STATUS_TABLE)}

#: Decoder hygiene bounds: a hostile 127.0.0.1 peer must not make us
#: allocate gigabytes, or spin in a probe loop, from a forged varint.
#: Generous vs every real payload (paper digests are 20 Kbit with a
#: handful of hashes; counts are view/exchange sized).
_MAX_DIGEST_BITS = 1 << 26
_MAX_DIGEST_HASHES = 64
_MAX_SEQUENCE = 1 << 24


def _write_uv(out: bytearray, value: int) -> None:
    """Unsigned LEB128 varint (counts, versions, rpc ids, geometry)."""
    if value < 0:
        raise ValueError(f"unsigned varint cannot encode {value!r}")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_uv(view: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    total = len(view)
    while True:
        if offset >= total:
            raise ValueError("truncated varint")
        byte = view[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def _write_sv(out: bytearray, value: int) -> None:
    """Zigzag LEB128 varint (ids and other possibly-negative ints)."""
    _write_uv(out, value * 2 if value >= 0 else -value * 2 - 1)


def _read_sv(view: bytes, offset: int) -> Tuple[int, int]:
    raw, offset = _read_uv(view, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def _write_len(out: bytearray, count: int) -> None:
    if count > _MAX_SEQUENCE:
        raise ValueError(f"sequence of {count} elements exceeds the wire bound")
    _write_uv(out, count)


def _read_len(view: bytes, offset: int) -> Tuple[int, int]:
    count, offset = _read_uv(view, offset)
    if count > _MAX_SEQUENCE:
        raise ValueError(f"sequence length {count} exceeds the wire bound")
    return count, offset


def _read_byte(view: bytes, offset: int, what: str) -> Tuple[int, int]:
    """One raw byte (a presence flag, a code); ``what`` names it on truncation."""
    if offset >= len(view):
        raise ValueError(f"truncated {what}")
    return view[offset], offset + 1


def _write_svs(out: bytearray, values) -> None:
    _write_len(out, len(values))
    for value in values:
        _write_sv(out, value)


def _read_svs(view: bytes, offset: int, container: Callable):
    count, offset = _read_len(view, offset)
    values = []
    for _ in range(count):
        value, offset = _read_sv(view, offset)
        values.append(value)
    return container(values), offset


def _write_actions(out: bytearray, actions) -> None:
    pairs = sorted(actions)
    _write_len(out, len(pairs))
    for item, tag in pairs:
        _write_sv(out, item)
        _write_sv(out, tag)


def _read_actions(view: bytes, offset: int) -> Tuple[List[Tuple[int, int]], int]:
    count, offset = _read_len(view, offset)
    pairs = []
    for _ in range(count):
        item, offset = _read_sv(view, offset)
        tag, offset = _read_sv(view, offset)
        pairs.append((item, tag))
    return pairs, offset


# --------------------------------------------------------------- field kinds


class _Kind(NamedTuple):
    """One sort of field value: how it is written and read."""

    #: ``write(out, value)``.
    write: Callable[..., None]
    #: ``read(view, offset) -> (value, offset)``.
    read: Callable[..., Tuple[Any, int]]


#: What a row is made of: ``(attribute, kind)`` per field, in
#: wire order.  Messages *and* the objects nested in them are described
#: this way; :func:`_record` turns a row into the kind that walks it.
Fields = Tuple[Tuple[str, _Kind], ...]


def _record(build: Callable, fields: Fields) -> _Kind:
    """The kind of an object with these ``fields``; ``build`` takes the
    attributes as keywords (a dataclass, ``UserProfile.from_state``)."""
    writers = tuple((attr, kind.write) for attr, kind in fields)
    readers = tuple((attr, kind.read) for attr, kind in fields)

    def write(out, obj) -> None:
        for attr, write_field in writers:
            write_field(out, getattr(obj, attr))

    def read(view, offset):
        values = {}
        for attr, read_field in readers:
            values[attr], offset = read_field(view, offset)
        return build(**values), offset

    return _Kind(write, read)


def _optional(kind: _Kind) -> _Kind:
    """``None`` or a ``kind`` value, behind a presence byte."""

    def write(out, value) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            kind.write(out, value)

    def read(view, offset):
        present, offset = _read_byte(view, offset, "optional field")
        if not present:
            return None, offset
        return kind.read(view, offset)

    return _Kind(write, read)


def _write_scores(out: bytearray, scores: Dict[int, float]) -> None:
    pairs = sorted(scores.items())
    _write_len(out, len(pairs))
    for item, score in pairs:
        _write_sv(out, item)
        out += _F64.pack(score)


def _read_scores(view: bytes, offset: int) -> Tuple[Dict[int, float], int]:
    count, offset = _read_len(view, offset)
    scores = {}
    for _ in range(count):
        item, offset = _read_sv(view, offset)
        end = offset + _F64.size
        if end > len(view):
            raise ValueError("truncated score")
        scores[item] = _F64.unpack_from(view, offset)[0]
        offset = end
    return scores, offset


def _write_digests(out: bytearray, digests) -> None:
    """Each digest as its ``(user_id, version)``, its geometry and count,
    and its wire row."""
    _write_len(out, len(digests))
    for digest in digests:
        _write_sv(out, digest.user_id)
        _write_uv(out, digest.version)
        bloom = digest.bloom
        _write_uv(out, bloom.num_bits)
        _write_uv(out, bloom.num_hashes)
        _write_uv(out, bloom.approximate_count)
        out += bloom.row_bytes()


def _read_digest(view: bytes, offset: int):
    user_id, offset = _read_sv(view, offset)
    version, offset = _read_uv(view, offset)
    num_bits, offset = _read_uv(view, offset)
    if not 0 < num_bits <= _MAX_DIGEST_BITS:
        raise ValueError(f"digest num_bits {num_bits} out of range")
    # A probe loops num_hashes times and every distinct geometry is
    # memoised process-wide, so a forged count must not reach the filter.
    num_hashes, offset = _read_uv(view, offset)
    if not 0 < num_hashes <= _MAX_DIGEST_HASHES:
        raise ValueError(f"digest num_hashes {num_hashes} out of range")
    count, offset = _read_len(view, offset)
    end = offset + (num_bits + 7) // 8
    if end > len(view):
        raise ValueError("truncated digest row")
    return intern_digest(
        user_id, version, num_bits, num_hashes, count, bytes(view[offset:end])
    ), end


def _read_digests(view: bytes, offset: int):
    count, offset = _read_len(view, offset)
    digests = []
    for _ in range(count):
        digest, offset = _read_digest(view, offset)
        digests.append(digest)
    return tuple(digests), offset


def _write_descriptors(out: bytearray, descriptors) -> None:
    _write_len(out, len(descriptors))
    for user_id, version in descriptors:
        _write_sv(out, user_id)
        _write_uv(out, version)


def _read_descriptors(view: bytes, offset: int):
    count, offset = _read_len(view, offset)
    descriptors = []
    for _ in range(count):
        user_id, offset = _read_sv(view, offset)
        version, offset = _read_uv(view, offset)
        descriptors.append((user_id, version))
    return tuple(descriptors), offset


def _pairs_of(action_ids):
    return (action_of(action_id) for action_id in action_ids)


def _intern_pairs(pairs) -> Tuple[int, ...]:
    return tuple(sorted({intern_action(item, tag) for item, tag in pairs}))


def _read_interned(view: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    pairs, offset = _read_actions(view, offset)
    return _intern_pairs(pairs), offset


#: Possibly-negative ints (ids, cycles) and counters that never are.
_SINT = _Kind(_write_sv, _read_sv)
_UINT = _Kind(_write_uv, _read_uv)
#: An ordered tuple of ints / a frozenset of ints (carried sorted).
_SINTS = _Kind(_write_svs, lambda view, offset: _read_svs(view, offset, tuple))
_SINT_SET = _Kind(
    lambda out, values: _write_svs(out, sorted(values)),
    lambda view, offset: _read_svs(view, offset, frozenset),
)
#: ``(user_id, version)`` descriptors of swapped, offered or pulled
#: digests, in order.
_DESCRIPTORS = _Kind(_write_descriptors, _read_descriptors)
#: ``item -> score`` as sorted ``(item, score)`` pairs, scores ``<d`` doubles.
_SCORES = _Kind(_write_scores, _read_scores)
#: A set of ``(item, tag)`` actions, carried sorted.
_ACTION_PAIRS = _Kind(_write_actions, _read_actions)
#: Interned action ids are process-local (:mod:`repro.data.interning`):
#: they travel as explicit ``(item, tag)`` pairs (carried sorted) and are
#: re-interned into the reply's ascending id tuple.
_ACTIONS = _Kind(lambda out, ids: _write_actions(out, _pairs_of(ids)), _read_interned)
#: A tuple of :class:`ProfileDigest`, each a full row.
_DIGESTS = _Kind(_write_digests, _read_digests)

#: A profile is its actions plus its *live* version, which counts every
#: mutation since birth, not just the actions currently present; replica
#: freshness tracking needs it intact.
_PROFILE = _record(
    UserProfile.from_state,
    (("user_id", _SINT), ("version", _UINT), ("actions", _ACTION_PAIRS)),
)
QUERY_FIELDS: Fields = (
    ("query_id", _SINT),
    ("querier", _SINT),
    ("tags", _SINTS),
    ("source_item", _optional(_SINT)),
)
PARTIAL_FIELDS: Fields = (
    ("query_id", _SINT),
    ("sender", _SINT),
    ("cycle", _SINT),
    ("scores", _SCORES),
    ("contributors", _SINTS),
)
_QUERY = _record(Query, QUERY_FIELDS)
_PARTIAL = _record(PartialResult, PARTIAL_FIELDS)
_OPT_ACTIONS = _optional(_ACTIONS)
_OPT_PROFILE = _optional(_PROFILE)


# ------------------------------------------------------------- message table

#: ``type -> (tag, fields)``.  Every concrete Message subclass MUST have a
#: row, naming each of its dataclass fields exactly once; the catalogue
#: test enumerates ``Message.__subclasses__()``.  Adding a message type is
#: one row here (reusing the kinds above) plus its price in
#: ``gossip.sizes``.
MESSAGE_TABLE: Dict[Type[Message], Tuple[int, Fields]] = {
    DigestAdvertisement: (1, (("descriptors", _DESCRIPTORS),)),
    CommonItemsRequest: (2, (("subject_id", _SINT), ("items", _SINT_SET))),
    CommonItemsReply: (3, (("subject_id", _SINT), ("actions", _OPT_ACTIONS))),
    FullProfileRequest: (4, (("subject_id", _SINT),)),
    FullProfilePush: (5, (("subject_id", _SINT), ("profile", _OPT_PROFILE))),
    QueryForward: (6, (("query", _QUERY), ("remaining", _SINTS), ("cycle", _SINT))),
    RemainingReturn: (7, (("query_id", _SINT), ("remaining", _SINTS))),
    QueryResult: (8, (("partial", _PARTIAL),)),
    DigestOffer: (9, (("descriptors", _DESCRIPTORS),)),
    DigestPullRequest: (10, (("descriptors", _DESCRIPTORS),)),
    DigestPullReply: (11, (("digests", _DIGESTS),)),
}

#: Derived once at import, never edited: each row's fields as the record
#: kind that walks them, looked up by type (encode) and by tag (decode).
_BY_TYPE = {cls: (tag, _record(cls, fields)) for cls, (tag, fields) in MESSAGE_TABLE.items()}
_BY_TAG = {tag: kind for tag, kind in _BY_TYPE.values()}


def _row_of(message: Message) -> Tuple[int, _Kind]:
    row = _BY_TYPE.get(type(message))
    if row is None:
        raise TypeError(
            f"no wire encoding registered for {type(message).__name__}; "
            "add a row to repro.service.codec.MESSAGE_TABLE"
        )
    return row


class WireCodec:
    """Empty, kept only because ``benchmarks/e2e/tracer.py`` imports this
    name and wraps the codec methods each class defines (this one defines
    none).  :class:`BinaryWireCodec` is the one codec."""


class BinaryWireCodec:
    """The wire codec: struct/varint frames, raw digest rows.

    Three layers -- message bodies (``encode_message``/``decode_message``),
    runtime frames (``encode_request``/``encode_reply``/``encode_send`` and
    ``split``/``decode_body``), and the length-prefix outer framing.  A
    digest entry is a small header plus the filter's own memoised
    :meth:`BloomFilter.row_bytes`, and a decoded row resolves to the one
    interned :class:`ProfileDigest` of that content -- no codec keeps a
    private copy of either.  The codec holds no state: a message encodes
    to the same bytes on every link and off it.  Byte accounting does not
    read the frames: messages are priced by ``gossip.sizes.total_bytes``
    on the message *object* before encoding.
    """

    # -- message layer --------------------------------------------------------

    def _write_message(self, out: bytearray, message: Message) -> None:
        tag, kind = _row_of(message)
        out.append(tag)
        kind.write(out, message)

    def encode_message(self, message: Message) -> bytes:
        out = bytearray()
        self._write_message(out, message)
        return bytes(out)

    def decode_message(self, data: bytes) -> Message:
        message, offset = self._decode_message_at(data, 0)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes after message")
        return message

    def _decode_message_at(self, view: bytes, offset: int) -> Tuple[Message, int]:
        tag, offset = _read_byte(view, offset, "message: missing tag")
        kind = _BY_TAG.get(tag)
        if kind is None:
            raise ValueError(f"unknown binary wire message tag {tag!r}")
        return kind.read(view, offset)

    # -- runtime frames -------------------------------------------------------

    def encode_request(self, envelope: Envelope, rpc_id: int) -> bytes:
        """The forward leg of a round-trip (carries the rpc correlation id)."""
        out = bytearray((_OP_REQ,))
        _write_uv(out, rpc_id)
        self._write_addressed(out, envelope)
        return _frame(out)

    def encode_reply(self, rpc_id: int, status: str, reply: Optional[Message]) -> bytes:
        index = _STATUS_INDEX.get(status)
        if index is None:
            raise ValueError(f"unknown delivery status {status!r}")
        out = bytearray((_OP_REP,))
        _write_uv(out, rpc_id)
        out.append(index)
        if reply is None:
            out.append(0)
        else:
            out.append(1)
            self._write_message(out, reply)
        return _frame(out)

    def encode_send(self, envelope: Envelope) -> bytes:
        """A one-way message (no reply expected, no rpc id)."""
        out = bytearray((_OP_SEND,))
        self._write_addressed(out, envelope)
        return _frame(out)

    def _write_addressed(self, out: bytearray, envelope: Envelope) -> None:
        _write_sv(out, envelope.sender)
        _write_sv(out, envelope.receiver)
        # Bit 0 is always set (every message is priced) and ignored on decode.
        out.append(3 if envelope.query_id is not None else 1)
        if envelope.query_id is not None:
            _write_sv(out, envelope.query_id)
        self._write_message(out, envelope.message)

    def split(self, payload: bytes) -> Tuple[List[bytes], bytes]:
        """The outer framing: see :func:`split_frames`."""
        return split_frames(payload)

    def decode_body(self, body: bytes) -> Dict[str, Any]:
        """One raw frame body to the dict the runtime dispatches on.

        ``op`` is ``"req"``, ``"rep"`` or ``"send"``; ``rpc`` the
        correlation id (``None`` for a send); ``m`` the decoded message
        (``None`` for a payload-less reply); requests and sends carry a
        ready ``envelope``.
        """
        op, offset = _read_byte(body, 0, "frame: empty frame body")
        if op not in _OP_NAMES:
            raise ValueError(f"unknown binary frame op {op!r}")
        decoded: Dict[str, Any] = {"op": _OP_NAMES[op], "rpc": None, "m": None}
        if op != _OP_SEND:
            decoded["rpc"], offset = _read_uv(body, offset)
        if op == _OP_REP:
            status_index, offset = _read_byte(body, offset, "reply header")
            has_message, offset = _read_byte(body, offset, "reply header")
            if status_index >= len(_STATUS_TABLE):
                raise ValueError(f"unknown delivery status index {status_index}")
            if has_message:
                decoded["m"], offset = self._decode_message_at(body, offset)
        else:
            sender, offset = _read_sv(body, offset)
            receiver, offset = _read_sv(body, offset)
            flags, offset = _read_byte(body, offset, "frame: missing flags")
            query_id = None
            if flags & 2:
                query_id, offset = _read_sv(body, offset)
            decoded["m"], offset = self._decode_message_at(body, offset)
            decoded["envelope"] = Envelope(
                sender=sender,
                receiver=receiver,
                message=decoded["m"],
                query_id=query_id,
                expects_reply=op == _OP_REQ,
            )
        if offset != len(body):
            raise ValueError("trailing bytes after message")
        return decoded
