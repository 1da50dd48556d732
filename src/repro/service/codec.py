"""The wire codec: every transport :class:`Message` as a length-prefixed frame.

The simulator hands message *objects* between nodes; the service runtime
hands **bytes**.  This module is the layer in between.  It holds one wire
format and one description of the message catalogue:

* :data:`MESSAGE_TABLE` -- ``Message type -> (binary tag, JSON tag,
  ((attribute, JSON key, kind), ...))``.  A :class:`_Kind` (``_SINT``,
  ``_DIGESTS``, ...) says once how one sort of field value looks in both
  forms, in both directions; objects nested in messages (queries, partial
  results, profiles) are rows of the same shape.  Everything below walks
  this table, so a new ``Message`` subclass is one row here plus one price
  in :mod:`repro.gossip.sizes`.
* :class:`BinaryWireCodec` -- **the** wire codec: struct-packed headers,
  varint/zigzag integer fields, and Bloom digests as raw little-endian
  byte rows (:meth:`BloomFilter.row_bytes`, serialised once per filter
  whoever sends it).  Received rows resolve through the process-wide
  content-keyed intern table
  (:func:`repro.gossip.digest.intern_digest`), so however
  many nodes decode a digest there is one object for it, and -- when the
  runtime commits successful sends -- digests the receiver was already
  sent travel as 1-byte-marker references instead of full rows.
* :class:`WireCodec` -- the JSON *message* form of the same table.  It is
  **not** a wire codec (no frames, no addressing): it is what
  :class:`~repro.service.trace.ServiceTrace` persists as JSON Lines, so a
  recorded run stays readable and reloadable.

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
  filters travel as their full state and are rebuilt from it.  Frames decode identically in another
  process (the UDP transport) and in-process (the loopback).
* **Faithful round-trips.**  ``decode_message(encode_message(m))`` must
  compare equal to ``m`` field by field and price identically under
  ``total_bytes`` -- the property tests assert both, for each form; the
  two forms cannot disagree on *which* fields a message has because both
  read them from the same row.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from ..bloom import BloomFilter
from ..data.interning import action_of, intern_action
from ..data.models import UserProfile
from ..data.queries import Query
from ..gossip.digest import ProfileDigest, intern_digest
from ..p3q.query import PartialResult
from ..simulator.transport import (
    DEFERRED,
    DELIVERED,
    DROPPED,
    LOST,
    REPLY_DROPPED,
    UNREACHABLE,
    VIEW_PERSONAL,
    VIEW_RANDOM,
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
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

#: Cache bounds of one :class:`BinaryWireCodec` (an LRU and a
#: shed-on-overflow table; neither grows with the run).
_MAX_RECEIVED_DIGESTS = 65536
#: Never above the receiver's LRU, or references would outlive their rows.
_MAX_SENT_PER_LINK = 65536

_VIEW_CODES = {VIEW_RANDOM: 0, VIEW_PERSONAL: 1}
_VIEW_NAMES = {code: name for name, code in _VIEW_CODES.items()}

#: Digest-entry markers inside a DigestAdvertisement payload.
_DIGEST_FULL = 0
_DIGEST_REF = 1


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
    """One sort of field value: its JSON form and its wire form, both ways."""

    to_json: Callable[[Any], Any]
    from_json: Callable[[Any], Any]
    #: ``write(codec, out, value, receiver)``: the encoding
    #: :class:`BinaryWireCodec` and the link the frame goes out on (``None``
    #: off-link) ride along for the one kind with per-link state, digests.
    write: Callable[..., None]
    #: ``read(codec, view, offset) -> (value, offset)``.
    read: Callable[..., Tuple[Any, int]]


#: What a row is made of: ``(attribute, JSON key, kind)`` per field, in
#: wire order.  Messages *and* the objects nested in them are described
#: this way; :func:`_record` turns a row into the kind that walks it.
Fields = Tuple[Tuple[str, str, _Kind], ...]


def _record(build: Callable, fields: Fields) -> _Kind:
    """The kind of an object with these ``fields``; ``build`` takes the
    attributes as keywords (a dataclass, ``UserProfile.from_state``)."""
    writers = tuple((attr, kind.write) for attr, _, kind in fields)
    readers = tuple((attr, kind.read) for attr, _, kind in fields)

    def to_json(obj) -> Dict[str, Any]:
        return {key: kind.to_json(getattr(obj, attr)) for attr, key, kind in fields}

    def from_json(body: Dict[str, Any]):
        return build(**{attr: kind.from_json(body[key]) for attr, key, kind in fields})

    def write(codec, out, obj, receiver) -> None:
        for attr, write_field in writers:
            write_field(codec, out, getattr(obj, attr), receiver)

    def read(codec, view, offset):
        values = {}
        for attr, read_field in readers:
            values[attr], offset = read_field(codec, view, offset)
        return build(**values), offset

    return _Kind(to_json, from_json, write, read)


def _plain(to_json, from_json, write, read) -> _Kind:
    """A leaf kind over stateless primitives ``write(out, value)`` /
    ``read(view, offset)`` -- every leaf but the digests."""
    return _Kind(
        to_json,
        from_json,
        lambda codec, out, value, receiver: write(out, value),
        lambda codec, view, offset: read(view, offset),
    )


def _optional(kind: _Kind) -> _Kind:
    """``None`` or a ``kind`` value: ``null`` in JSON, a presence byte on the wire."""

    def write(codec, out, value, receiver) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            kind.write(codec, out, value, receiver)

    def read(codec, view, offset):
        present, offset = _read_byte(view, offset, "optional field")
        if not present:
            return None, offset
        return kind.read(codec, view, offset)

    return _Kind(
        lambda value: None if value is None else kind.to_json(value),
        lambda obj: None if obj is None else kind.from_json(obj),
        write,
        read,
    )


def _identity(value: Any) -> Any:
    return value


def _write_view(out: bytearray, name: str) -> None:
    out.append(_VIEW_CODES[name])


def _read_view(view: bytes, offset: int) -> Tuple[str, int]:
    code, offset = _read_byte(view, offset, "advertisement: missing view byte")
    if code not in _VIEW_NAMES:
        raise ValueError(f"unknown view code {code!r}")
    return _VIEW_NAMES[code], offset


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


def _digests_to_json(digests) -> List[Dict[str, Any]]:
    return [
        {
            "u": digest.user_id,
            "v": digest.version,
            "nb": digest.bloom.num_bits,
            "nh": digest.bloom.num_hashes,
            "c": digest.bloom.approximate_count,
            "b": format(digest.bloom.raw_bits, "x"),
        }
        for digest in digests
    ]


def _digests_from_json(objs) -> Tuple[ProfileDigest, ...]:
    return tuple(
        ProfileDigest(
            user_id=obj["u"],
            version=obj["v"],
            bloom=BloomFilter.from_state(obj["nb"], obj["nh"], int(obj["b"], 16), obj["c"]),
        )
        for obj in objs
    )


def _write_digests(codec, out: bytearray, digests, receiver) -> None:
    _write_len(out, len(digests))
    for digest in digests:
        codec._encode_digest_entry(out, digest, receiver)


def _read_digests(codec, view: bytes, offset: int):
    count, offset = _read_len(view, offset)
    digests = []
    for _ in range(count):
        digest, offset = codec._decode_digest_entry(view, offset)
        digests.append(digest)
    return tuple(digests), offset


def _pairs_of(action_ids):
    return (action_of(action_id) for action_id in action_ids)


def _intern_pairs(pairs) -> Tuple[int, ...]:
    return tuple(sorted({intern_action(item, tag) for item, tag in pairs}))


def _read_interned(view: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    pairs, offset = _read_actions(view, offset)
    return _intern_pairs(pairs), offset


#: Possibly-negative ints (ids, cycles) and counters that never are.
_SINT = _plain(_identity, _identity, _write_sv, _read_sv)
_UINT = _plain(_identity, _identity, _write_uv, _read_uv)
#: An ordered tuple of ints / a frozenset of ints (carried sorted).
_SINTS = _plain(list, tuple, _write_svs, lambda view, offset: _read_svs(view, offset, tuple))
_SINT_SET = _plain(
    sorted,
    frozenset,
    lambda out, values: _write_svs(out, sorted(values)),
    lambda view, offset: _read_svs(view, offset, frozenset),
)
#: Which view an advertisement describes: its name in JSON, a code byte.
_VIEW = _plain(_identity, _identity, _write_view, _read_view)
#: ``item -> score``; JSON objects force string keys, so both forms carry
#: sorted ``(item, score)`` pairs (scores as ``<d`` doubles on the wire).
_SCORES = _plain(lambda scores: sorted(scores.items()), dict, _write_scores, _read_scores)
#: A set of ``(item, tag)`` actions, carried sorted.
_ACTION_PAIRS = _plain(
    sorted, lambda pairs: [(item, tag) for item, tag in pairs], _write_actions, _read_actions
)
#: Interned action ids are process-local (:mod:`repro.data.interning`):
#: they travel as explicit ``(item, tag)`` pairs (carried sorted) and are
#: re-interned into the reply's ascending id tuple.
_ACTIONS = _plain(
    lambda ids: sorted(_pairs_of(ids)),
    _intern_pairs,
    lambda out, ids: _write_actions(out, _pairs_of(ids)),
    _read_interned,
)
#: A tuple of :class:`ProfileDigest`; on the wire each entry is a full row
#: or a reference, decided per link by the codec's caches.
_DIGESTS = _Kind(_digests_to_json, _digests_from_json, _write_digests, _read_digests)

#: A profile is its actions plus its *live* version, which counts every
#: mutation since birth, not just the actions currently present; replica
#: freshness tracking needs it intact.
_PROFILE = _record(
    UserProfile.from_state,
    (("user_id", "u", _SINT), ("version", "v", _UINT), ("actions", "a", _ACTION_PAIRS)),
)
QUERY_FIELDS: Fields = (
    ("query_id", "id", _SINT),
    ("querier", "qr", _SINT),
    ("tags", "t", _SINTS),
    ("source_item", "si", _optional(_SINT)),
)
PARTIAL_FIELDS: Fields = (
    ("query_id", "id", _SINT),
    ("sender", "s", _SINT),
    ("cycle", "cy", _SINT),
    ("scores", "sc", _SCORES),
    ("contributors", "co", _SINTS),
)
_QUERY = _record(Query, QUERY_FIELDS)
_PARTIAL = _record(PartialResult, PARTIAL_FIELDS)
_OPT_ACTIONS = _optional(_ACTIONS)
_OPT_PROFILE = _optional(_PROFILE)


# ------------------------------------------------------------- message table

#: ``type -> (binary tag, JSON tag, fields)``.  Every concrete Message
#: subclass MUST have a row, naming each of its dataclass fields exactly
#: once; the catalogue test enumerates ``Message.__subclasses__()``.
#: Adding a message type is one row here (reusing the kinds above) plus
#: its price in ``gossip.sizes``.
MESSAGE_TABLE: Dict[Type[Message], Tuple[int, str, Fields]] = {
    DigestAdvertisement: (1, "digests", (("view", "vw", _VIEW), ("digests", "d", _DIGESTS))),
    CommonItemsRequest: (
        2, "common_req", (("subject_id", "su", _SINT), ("items", "it", _SINT_SET)),
    ),
    CommonItemsReply: (
        3, "common_rep", (("subject_id", "su", _SINT), ("actions", "a", _OPT_ACTIONS)),
    ),
    FullProfileRequest: (4, "profile_req", (("subject_id", "su", _SINT),)),
    FullProfilePush: (
        5, "profile_push", (("subject_id", "su", _SINT), ("profile", "p", _OPT_PROFILE)),
    ),
    QueryForward: (
        6,
        "query_fwd",
        (("query", "q", _QUERY), ("remaining", "rm", _SINTS), ("cycle", "cy", _SINT)),
    ),
    RemainingReturn: (
        7, "remaining_ret", (("query_id", "id", _SINT), ("remaining", "rm", _SINTS)),
    ),
    QueryResult: (8, "query_res", (("partial", "pr", _PARTIAL),)),
}

#: Derived once at import, never edited: each row's fields as the record
#: kind that walks them, looked up by type (encode) and by tag (decode).
_BY_TYPE = {
    cls: (binary_tag, json_tag, _record(cls, fields))
    for cls, (binary_tag, json_tag, fields) in MESSAGE_TABLE.items()
}
_BY_BINARY_TAG = {binary_tag: kind for binary_tag, _, kind in _BY_TYPE.values()}
_BY_JSON_TAG = {json_tag: kind for _, json_tag, kind in _BY_TYPE.values()}


def _row_of(message: Message) -> Tuple[int, str, _Kind]:
    row = _BY_TYPE.get(type(message))
    if row is None:
        raise TypeError(
            f"no wire encoding registered for {type(message).__name__}; "
            "add a row to repro.service.codec.MESSAGE_TABLE"
        )
    return row


class WireCodec:
    """The JSON *message* form: one message as a JSON-compatible dict.

    Not a wire codec -- it has no frames, no addressing and no decoder
    hygiene, and nothing on the network path uses it.  It exists for
    :class:`~repro.service.trace.ServiceTrace`, which persists recorded
    wire events as JSON Lines (the CI-uploaded trace ``check_trace``
    replays), and for debugging: ``encode_message(m)`` is a readable dump
    of any message.  Same table, same fields as the binary frames.
    """

    def encode_message(self, message: Message) -> Dict[str, Any]:
        _, tag, kind = _row_of(message)
        body = kind.to_json(message)
        body["t"] = tag
        return body

    def decode_message(self, obj: Dict[str, Any]) -> Message:
        kind = _BY_JSON_TAG.get(obj.get("t"))
        if kind is None:
            raise ValueError(f"unknown wire message tag {obj.get('t')!r}")
        return kind.from_json(obj)


class BinaryWireCodec:
    """The wire codec: struct/varint frames, raw digest rows.

    Three layers -- message bodies (``encode_message``/``decode_message``),
    runtime frames (``encode_request``/``encode_reply``/``encode_send`` and
    ``split``/``decode_body``), and the length-prefix outer framing -- plus
    what makes the digest-advertisement path cheap:

    * **Shared rows**: a full digest entry is a small header plus the
      filter's own memoised :meth:`BloomFilter.row_bytes`, and a decoded
      row resolves to the one interned :class:`ProfileDigest` of that
      content -- no codec keeps a private copy of either.
    * **Suppression**: when the runtime confirms a send (``commit_sent``),
      the ``(user_id, version)`` pairs shipped to that receiver are
      remembered, and later advertisements carry a small *reference* entry
      instead of the full row; the receiving codec resolves references
      from the digests it has already decoded.  A reference the receiver
      cannot resolve (evicted cache, a lost seeding frame) fails decode
      loudly and the inbox drops the frame -- exactly the loss the gossip
      protocol already tolerates.  Within a run ``(user_id, version)``
      identifies digest content: profiles only move forward in version
      (the replica-freshness invariant), so equal versions mean equal
      digest bits.

    The reference tables are per node (what *this* node decoded, what each
    of *its* peers was sent), so every :class:`~repro.service.runtime.NodeService`
    owns one instance.  Byte accounting is untouched by all of this:
    messages are priced by ``gossip.sizes.total_bytes`` on the message
    *object* before encoding, so a suppressed advertisement costs the same
    accounted bytes as a full one (the paper's cost model charges per
    digest, not per wire byte).
    """

    def __init__(self) -> None:
        #: receiver -> {(user_id, version)} confirmed on that link.
        self._sent: Dict[int, set] = {}
        #: receiver -> [(user_id, version)] encoded but not yet confirmed.
        self._pending: Dict[int, List[Tuple[int, int]]] = {}
        #: (user_id, version) -> ProfileDigest decoded earlier (LRU-bounded):
        #: what a reference from a peer resolves to.  Protocol state, so it
        #: is per node even though the digests it points at are shared.
        self._received: "OrderedDict[Tuple[int, int], ProfileDigest]" = OrderedDict()

    # -- digest plumbing ------------------------------------------------------

    def _encode_digest_entry(self, out: bytearray, digest: ProfileDigest,
                             receiver: Optional[int]) -> None:
        key = (digest.user_id, digest.version)
        if receiver is not None and key in self._sent.get(receiver, ()):
            out.append(_DIGEST_REF)
            _write_sv(out, digest.user_id)
            _write_uv(out, digest.version)
            return
        out.append(_DIGEST_FULL)
        _write_sv(out, digest.user_id)
        _write_uv(out, digest.version)
        bloom = digest.bloom
        _write_uv(out, bloom.num_bits)
        _write_uv(out, bloom.num_hashes)
        _write_uv(out, bloom.approximate_count)
        out += bloom.row_bytes()
        if receiver is not None:
            self._pending.setdefault(receiver, []).append(key)

    def _decode_digest_entry(
        self, view: bytes, offset: int
    ) -> Tuple[ProfileDigest, int]:
        marker, offset = _read_byte(view, offset, "digest entry")
        user_id, offset = _read_sv(view, offset)
        version, offset = _read_uv(view, offset)
        key = (user_id, version)
        if marker == _DIGEST_REF:
            digest = self._received.get(key)
            if digest is None:
                raise ValueError(
                    f"unknown digest reference (user {user_id}, version {version}); "
                    "the seeding frame was never received"
                )
            self._received.move_to_end(key)
            return digest, offset
        if marker != _DIGEST_FULL:
            raise ValueError(f"bad digest entry marker {marker!r}")
        num_bits, offset = _read_uv(view, offset)
        if not 0 < num_bits <= _MAX_DIGEST_BITS:
            raise ValueError(f"digest num_bits {num_bits} out of range")
        # A probe loops num_hashes times and every distinct geometry is
        # memoised process-wide, so a forged count must not reach the filter.
        num_hashes, offset = _read_uv(view, offset)
        if not 0 < num_hashes <= _MAX_DIGEST_HASHES:
            raise ValueError(f"digest num_hashes {num_hashes} out of range")
        count, offset = _read_len(view, offset)
        width = (num_bits + 7) // 8
        end = offset + width
        if end > len(view):
            raise ValueError("truncated digest row")
        digest = intern_digest(
            user_id, version, num_bits, num_hashes, count, bytes(view[offset:end])
        )
        self._received[key] = digest
        if len(self._received) > _MAX_RECEIVED_DIGESTS:
            self._received.popitem(last=False)
        return digest, end

    def commit_sent(self, receiver: int) -> None:
        """Confirm the last encode to ``receiver``: its digests may now be
        referenced instead of re-shipped (called after the wire accepted
        the frame)."""
        pending = self._pending.pop(receiver, None)
        if not pending:
            return
        sent = self._sent.setdefault(receiver, set())
        sent.update(pending)
        if len(sent) > _MAX_SENT_PER_LINK:
            # Shed the whole link table rather than track precise LRU on the
            # hot path; full rows are always correct.
            sent.clear()

    def abort_sent(self, receiver: int) -> None:
        """The wire refused the frame: forget its would-be references."""
        self._pending.pop(receiver, None)

    def forget_sent(self, receiver: int) -> None:
        """A round trip to ``receiver`` timed out: the frame that seeded its
        digests may never have been decoded, so reference nothing on that
        link until it is re-shipped (full rows are always correct)."""
        self._sent.pop(receiver, None)

    # -- message layer --------------------------------------------------------

    def _write_message(self, out: bytearray, message: Message,
                       receiver: Optional[int]) -> None:
        tag, _, kind = _row_of(message)
        out.append(tag)
        kind.write(self, out, message, receiver)

    def encode_message(self, message: Message, receiver: Optional[int] = None) -> bytes:
        out = bytearray()
        self._write_message(out, message, receiver)
        return bytes(out)

    def decode_message(self, data: bytes) -> Message:
        message, offset = self._decode_message_at(data, 0)
        if offset != len(data):
            raise ValueError(f"{len(data) - offset} trailing bytes after message")
        return message

    def _decode_message_at(self, view: bytes, offset: int) -> Tuple[Message, int]:
        tag, offset = _read_byte(view, offset, "message: missing tag")
        kind = _BY_BINARY_TAG.get(tag)
        if kind is None:
            raise ValueError(f"unknown binary wire message tag {tag!r}")
        return kind.read(self, view, offset)

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
            self._write_message(out, reply, None)
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
        self._write_message(out, envelope.message, envelope.receiver)

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
