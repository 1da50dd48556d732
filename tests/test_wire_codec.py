"""Round-trip property tests for the service-mode wire codec.

Contract (mirroring ``test_sizes_catalogue``): every concrete
:class:`~repro.simulator.transport.Message` subclass has one row in
``codec.MESSAGE_TABLE``; what is written from that row -- a runtime frame,
or a record of the trace file ``ServiceTrace`` dumps -- reconstructs the
message field by field, and the decoded message prices identically under
:func:`repro.gossip.sizes.total_bytes` -- so service-mode byte accounting
agrees with the simulator's no matter which side of the wire does it.
The catalogue is enumerated from ``Message.__subclasses__``: adding a
message type without teaching the codec about it fails loudly here.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.interning import intern_action
from repro.data.models import UserProfile
from repro.data.queries import Query
from repro.gossip.digest import ProfileDigest, intern_digest, make_digest
from repro.gossip.sizes import total_bytes
from repro.p3q.query import PartialResult
from repro.service import codec as codec_module
from repro.service.codec import MESSAGE_TABLE, BinaryWireCodec, _frame, _write_sv, split_frames
from repro.service.trace import ServiceTrace
from repro.simulator.transport import (
    DELIVERED,
    OP_SEND,
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


# ------------------------------------------------------------------ builders


def _profile(num_actions: int, user_id: int = 1) -> UserProfile:
    return UserProfile(user_id, [(item, item + 100) for item in range(num_actions)])


def _digest(user_id: int, num_actions: int = 3) -> ProfileDigest:
    return make_digest(_profile(num_actions, user_id=user_id), num_bits=256, num_hashes=3)


def _query(num_tags: int = 2) -> Query:
    return Query(
        query_id=9, querier=1, tags=tuple(range(100, 100 + max(1, num_tags))), source_item=7
    )


def _partial(num_items: int, num_contributors: int) -> PartialResult:
    return PartialResult(
        query_id=9,
        sender=2,
        scores={item: float(item) + 0.5 for item in range(num_items)},
        contributors=tuple(range(num_contributors)),
        cycle=1,
    )


def _interned(num_actions: int) -> tuple:
    return tuple(sorted(intern_action(item, item + 100) for item in range(num_actions)))


#: type -> strategy producing instances of exactly that type.  Every concrete
#: Message subclass MUST have an entry (enforced below).
STRATEGIES = {
    DigestAdvertisement: st.builds(
        DigestAdvertisement,
        digests=st.lists(
            st.integers(min_value=0, max_value=30).map(lambda uid: _digest(uid, 1 + uid % 4)),
            max_size=4,
        ).map(tuple),
        view=st.sampled_from([VIEW_RANDOM, VIEW_PERSONAL]),
    ),
    CommonItemsRequest: st.builds(
        CommonItemsRequest,
        subject_id=st.integers(min_value=0, max_value=1000),
        items=st.frozensets(st.integers(min_value=0, max_value=10_000), max_size=8),
    ),
    CommonItemsReply: st.builds(
        CommonItemsReply,
        subject_id=st.integers(min_value=0, max_value=1000),
        actions=st.one_of(
            st.none(), st.integers(min_value=0, max_value=8).map(_interned)
        ),
    ),
    FullProfileRequest: st.builds(
        FullProfileRequest, subject_id=st.integers(min_value=0, max_value=1000)
    ),
    FullProfilePush: st.builds(
        FullProfilePush,
        subject_id=st.integers(min_value=0, max_value=1000),
        profile=st.one_of(
            st.none(), st.integers(min_value=0, max_value=8).map(_profile)
        ),
    ),
    QueryForward: st.builds(
        QueryForward,
        query=st.integers(min_value=1, max_value=5).map(_query),
        remaining=st.lists(
            st.integers(min_value=0, max_value=1000), max_size=8
        ).map(tuple),
        cycle=st.integers(min_value=0, max_value=100),
    ),
    RemainingReturn: st.builds(
        RemainingReturn,
        query_id=st.integers(min_value=0, max_value=1000),
        remaining=st.lists(
            st.integers(min_value=0, max_value=1000), max_size=8
        ).map(tuple),
    ),
    QueryResult: st.builds(
        QueryResult,
        partial=st.tuples(
            st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
        ).map(lambda t: _partial(*t)),
    ),
}


def _catalogue():
    """Concrete Message subclasses of the transport module itself.

    ``@dataclass(slots=True)`` rebuilds each class, so ``__subclasses__``
    can still list the discarded pre-slots shell until it is collected;
    the identity check against the module attribute keeps only the
    canonical class objects.
    """
    from repro.simulator import transport

    return {
        cls
        for cls in Message.__subclasses__()
        if cls.__module__ == "repro.simulator.transport"
        and getattr(transport, cls.__name__, None) is cls
    }


# -------------------------------------------------------------- equivalence


def _assert_digest_equal(left: ProfileDigest, right: ProfileDigest) -> None:
    assert left.user_id == right.user_id
    assert left.version == right.version
    assert left.bloom.num_bits == right.bloom.num_bits
    assert left.bloom.num_hashes == right.bloom.num_hashes
    assert left.bloom.row_bytes() == right.bloom.row_bytes()
    assert left.bloom.approximate_count == right.bloom.approximate_count


def _assert_profile_equal(left: UserProfile, right: UserProfile) -> None:
    assert left.user_id == right.user_id
    assert left.version == right.version
    assert left.actions == right.actions


def assert_message_equal(left: Message, right: Message) -> None:
    assert type(left) is type(right)
    if isinstance(left, DigestAdvertisement):
        assert left.view == right.view
        assert len(left.digests) == len(right.digests)
        for a, b in zip(left.digests, right.digests):
            _assert_digest_equal(a, b)
    elif isinstance(left, FullProfilePush):
        assert left.subject_id == right.subject_id
        assert (left.profile is None) == (right.profile is None)
        if left.profile is not None:
            _assert_profile_equal(left.profile, right.profile)
    else:
        # Frozen dataclasses of hashable primitives (and PartialResult,
        # whose dataclass equality is field-wise over dict/tuple).
        assert left == right


# -------------------------------------------------------------------- tests


class TestCatalogueCoverage:
    def test_every_message_type_has_a_strategy(self):
        assert _catalogue() == set(STRATEGIES)

    def test_codec_registry_covers_the_catalogue(self):
        assert _catalogue() == set(MESSAGE_TABLE)
        tags = [tag for tag, _ in MESSAGE_TABLE.values()]
        assert len(set(tags)) == len(MESSAGE_TABLE), "tags must be unique"
        assert all(0 < tag < 256 for tag in tags)

    @pytest.mark.parametrize(
        "record_type, fields",
        [(cls, fields) for cls, (_, fields) in MESSAGE_TABLE.items()]
        + [(Query, codec_module.QUERY_FIELDS), (PartialResult, codec_module.PARTIAL_FIELDS)],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_row_names_every_dataclass_field_exactly_once(self, record_type, fields):
        declared = sorted(field.name for field in dataclasses.fields(record_type))
        assert sorted(attr for attr, _ in fields) == declared
        for _, kind in fields:
            assert callable(kind.write) and callable(kind.read)

    def test_unregistered_message_type_fails_loudly(self, tmp_path):
        class Bogus(Message):
            __slots__ = ()

        trace = ServiceTrace()
        trace.append(OP_SEND, 1, 2, Bogus(), DELIVERED, True, None)
        with pytest.raises(TypeError, match="Bogus"):
            trace.dump(str(tmp_path / "trace"))

    def test_unknown_tag_fails_loudly(self, tmp_path):
        # flags (send, delivered), sender 0, receiver 0, message tag 0xEE.
        path = tmp_path / "trace"
        path.write_bytes(_frame(bytearray([0x02, 0x00, 0x00, 0xEE])))
        with pytest.raises(ValueError, match="unknown binary wire message tag"):
            ServiceTrace.load(str(path))


def through_trace(message: Message, path) -> Message:
    """``message`` as the trace file carries it: dumped and loaded back."""
    trace = ServiceTrace()
    trace.append(OP_SEND, 1, 2, message, DELIVERED, True, None)
    trace.dump(str(path))
    (event,) = ServiceTrace.load(str(path)).events
    return event.message


@pytest.mark.parametrize("message_type", sorted(STRATEGIES, key=lambda c: c.__name__))
def test_round_trip_preserves_fields_and_price(message_type, tmp_path):
    @settings(max_examples=25, deadline=None)
    @given(message=STRATEGIES[message_type])
    def check(message):
        decoded = through_trace(message, tmp_path / "trace")
        assert_message_equal(message, decoded)
        assert total_bytes(decoded) == total_bytes(message)

    check()


# ------------------------------------------------------------- binary codec


class TestBinaryCatalogueCoverage:
    def test_unregistered_message_type_fails_loudly(self):
        class Bogus(Message):
            __slots__ = ()

        with pytest.raises(TypeError, match="Bogus"):
            BinaryWireCodec().encode_message(Bogus())

    def test_unknown_tag_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown binary wire message tag"):
            BinaryWireCodec().decode_message(bytes([0xEE]))


class TestBinaryRuntimeFrames:
    def test_request_frame_round_trip(self):
        codec = BinaryWireCodec()
        envelope = Envelope(
            sender=3,
            receiver=4,
            message=QueryForward(query=_query(), remaining=(5, 6), cycle=2),
            query_id=9,
            expects_reply=True,
        )
        bodies, leftover = codec.split(codec.encode_request(envelope, rpc_id=17))
        assert leftover == b"" and len(bodies) == 1
        decoded = BinaryWireCodec().decode_body(bodies[0])
        assert decoded["op"] == "req" and decoded["rpc"] == 17
        assert decoded["envelope"] == envelope
        # Only what the runtime reads.
        assert set(decoded) == {"op", "rpc", "m", "envelope"}

    def test_reply_frame_round_trip(self):
        codec = BinaryWireCodec()
        reply = RemainingReturn(query_id=9, remaining=(1, 2))
        bodies, _ = codec.split(codec.encode_reply(17, "delivered", reply))
        decoded = BinaryWireCodec().decode_body(bodies[0])
        assert decoded == {"op": "rep", "rpc": 17, "m": reply}

    def test_none_reply_frame(self):
        codec = BinaryWireCodec()
        bodies, _ = codec.split(codec.encode_reply(17, "dropped", None))
        decoded = BinaryWireCodec().decode_body(bodies[0])
        assert decoded == {"op": "rep", "rpc": 17, "m": None}
        with pytest.raises(ValueError, match="unknown delivery status"):
            codec.encode_reply(17, "teleported", None)

    def test_send_frame_round_trip_negative_ids(self):
        codec = BinaryWireCodec()
        envelope = Envelope(
            sender=-2,
            receiver=-1,
            message=QueryResult(partial=_partial(2, 1)),
            query_id=-9,
            expects_reply=False,
        )
        bodies, _ = codec.split(codec.encode_send(envelope))
        decoded = BinaryWireCodec().decode_body(bodies[0])
        assert decoded["op"] == "send" and decoded["rpc"] is None
        assert decoded["envelope"].sender == -2
        assert decoded["envelope"].receiver == -1
        assert decoded["envelope"] == envelope

    def test_flags_bit_0_is_ignored_on_decode(self):
        """Every message is priced: bit 0 of the flags byte is always written
        set and decodes to nothing, so a frame with it clear is the same."""
        envelope = Envelope(1, 2, FullProfileRequest(subject_id=3), None, False)
        bodies, _ = split_frames(BinaryWireCodec().encode_send(envelope))
        body = bodies[0]
        # op, sender svarint, receiver svarint, then the flags byte.
        assert body[3] == 1
        cleared = body[:3] + bytes([0]) + body[4:]
        assert BinaryWireCodec().decode_body(cleared)["envelope"] == envelope
        assert BinaryWireCodec().decode_body(body)["envelope"] == envelope


class TestBinaryMalformedFrames:
    """Satellite fuzz cases: every malformed shape drops loudly, never hangs."""

    def _one_body(self, frame):
        bodies, leftover = split_frames(frame)
        assert leftover == b""
        return bodies[0]

    def test_truncated_header(self):
        codec = BinaryWireCodec()
        frame = codec.encode_request(
            Envelope(1, 2, FullProfileRequest(subject_id=3), None, True), 5
        )
        body = self._one_body(frame)
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                BinaryWireCodec().decode_body(body[:cut])

    def test_bad_op_and_bad_tag(self):
        with pytest.raises(ValueError, match="unknown binary frame op"):
            BinaryWireCodec().decode_body(bytes([0x7F]))
        with pytest.raises(ValueError, match="empty frame body"):
            BinaryWireCodec().decode_body(b"")
        # op=send, sender=0, receiver=0, flags=0, message tag 0xEE.
        with pytest.raises(ValueError, match="unknown binary wire message tag"):
            BinaryWireCodec().decode_body(bytes([0x03, 0x00, 0x00, 0x00, 0xEE]))

    def test_oversized_length_claims(self):
        # A digest claiming a multi-gigabyte row must be refused before any
        # allocation happens.
        evil = bytearray([0x01])  # DigestAdvertisement tag
        evil += bytes([0x00])  # view=random
        evil += bytes([0x01])  # one digest
        evil += bytes([0x00])  # marker: full row
        evil += bytes([0x00, 0x00])  # user_id=0, version=0
        evil += b"\xff\xff\xff\xff\x7f"  # num_bits varint ~= 2**34
        with pytest.raises(ValueError, match="num_bits"):
            BinaryWireCodec().decode_message(bytes(evil))
        # A sequence length beyond the wire bound fails the same way.
        evil2 = bytearray([0x02, 0x00])  # CommonItemsRequest, subject=0
        evil2 += b"\xff\xff\xff\xff\x7f"  # item count ~= 2**34
        with pytest.raises(ValueError, match="sequence length"):
            BinaryWireCodec().decode_message(bytes(evil2))

    def test_forged_digest_geometry_rejected(self):
        # num_hashes drives a Python loop per probe and every geometry is
        # memoised process-wide; count is a forged varint like any length.
        def advertisement(num_hashes: bytes, count: bytes) -> bytes:
            evil = bytearray([0x01, 0x00, 0x01, 0x00])  # tag, view, one full row
            evil += bytes([0x00, 0x00])  # user_id=0, version=0
            evil += bytes([0x40])  # num_bits=64
            evil += num_hashes + count
            evil += bytes(8)  # the row itself
            return bytes(evil)

        BinaryWireCodec().decode_message(advertisement(b"\x03", b"\x05"))  # sane: decodes
        for forged in (b"\x00", b"\x41", b"\xc0\x8d\xb7\x01"):  # 0, 65, 3_000_000
            with pytest.raises(ValueError, match="num_hashes"):
                BinaryWireCodec().decode_message(advertisement(forged, b"\x05"))
        with pytest.raises(ValueError, match="sequence length"):
            BinaryWireCodec().decode_message(
                advertisement(b"\x03", b"\xff\xff\xff\xff\x7f")
            )

    def test_unbounded_varint_rejected(self):
        with pytest.raises(ValueError, match="varint"):
            BinaryWireCodec().decode_message(bytes([0x04]) + b"\xff" * 12)

    def test_trailing_bytes_rejected(self):
        codec = BinaryWireCodec()
        body = codec.encode_message(FullProfileRequest(subject_id=3))
        with pytest.raises(ValueError, match="trailing"):
            BinaryWireCodec().decode_message(body + b"\x00")

    def test_bad_status_index(self):
        codec = BinaryWireCodec()
        body = self._one_body(codec.encode_reply(1, "delivered", None))
        evil = bytearray(body)
        evil[-2] = 0xEE  # the status byte
        with pytest.raises(ValueError, match="status index"):
            BinaryWireCodec().decode_body(bytes(evil))


class TestDigestSuppression:
    def _advertisement(self):
        return DigestAdvertisement(digests=(_digest(1), _digest(2)), view=VIEW_PERSONAL)

    def _envelope(self, message, receiver=7):
        return Envelope(1, receiver, message, None, False)

    def test_committed_digests_travel_as_references(self):
        sender = BinaryWireCodec()
        adv = self._advertisement()
        first = sender.encode_send(self._envelope(adv))
        sender.commit_sent(7)
        second = sender.encode_send(self._envelope(adv))
        assert len(second) < len(first) / 2

        receiver = BinaryWireCodec()
        for frame in (first, second):
            bodies, _ = receiver.split(frame)
            decoded = receiver.decode_body(bodies[0])
            assert_message_equal(decoded["m"], adv)

    def test_uncommitted_sends_are_not_suppressed(self):
        sender = BinaryWireCodec()
        adv = self._advertisement()
        first = sender.encode_send(self._envelope(adv))
        sender.abort_sent(7)  # the wire refused the frame
        second = sender.encode_send(self._envelope(adv))
        assert len(second) == len(first)

    def test_suppression_is_per_receiver(self):
        sender = BinaryWireCodec()
        adv = self._advertisement()
        sender.encode_send(self._envelope(adv, receiver=7))
        sender.commit_sent(7)
        to_other = sender.encode_send(self._envelope(adv, receiver=8))
        fresh = BinaryWireCodec()
        bodies, _ = fresh.split(to_other)
        assert_message_equal(fresh.decode_body(bodies[0])["m"], adv)

    def test_unresolvable_reference_fails_loudly(self):
        sender = BinaryWireCodec()
        adv = self._advertisement()
        sender.encode_send(self._envelope(adv))
        sender.commit_sent(7)
        ref_frame = sender.encode_send(self._envelope(adv))
        never_seeded = BinaryWireCodec()
        bodies, _ = never_seeded.split(ref_frame)
        with pytest.raises(ValueError, match="digest reference"):
            never_seeded.decode_body(bodies[0])

    def test_new_version_ships_a_full_row(self):
        sender = BinaryWireCodec()
        profile = _profile(3, user_id=1)
        adv1 = DigestAdvertisement(
            digests=(make_digest(profile, num_bits=256, num_hashes=3),),
            view=VIEW_PERSONAL,
        )
        sender.encode_send(self._envelope(adv1))
        sender.commit_sent(7)
        profile.add_all([(50, 150)])  # bumps the version
        adv2 = DigestAdvertisement(
            digests=(make_digest(profile, num_bits=256, num_hashes=3),),
            view=VIEW_PERSONAL,
        )
        frame = sender.encode_send(self._envelope(adv2))
        fresh = BinaryWireCodec()
        bodies, _ = fresh.split(frame)
        assert_message_equal(fresh.decode_body(bodies[0])["m"], adv2)


class TestDigestInterning:
    """Decoded digests resolve through the content-keyed intern table of
    ``repro.gossip.digest``: one object per content, whoever decodes it."""

    def _frame(self, digest):
        adv = DigestAdvertisement(digests=(digest,), view=VIEW_PERSONAL)
        return BinaryWireCodec().encode_send(Envelope(1, 7, adv, None, False))

    def _decode(self, codec, frame):
        bodies, _ = codec.split(frame)
        return codec.decode_body(bodies[0])["m"].digests[0]

    def test_every_receiver_gets_the_same_object(self):
        frame = self._frame(_digest(1))
        first, second = BinaryWireCodec(), BinaryWireCodec()
        decoded = self._decode(first, frame)
        assert self._decode(second, frame) is decoded
        assert first._received[(1, decoded.version)] is decoded
        assert second._received[(1, decoded.version)] is decoded
        # The adopted row is the filter's wire row: forwarding the digest
        # re-serialises nothing.
        assert decoded.bloom.row_bytes() in frame

    def test_one_flipped_bit_is_a_different_digest(self):
        honest = _digest(1)
        frame = self._frame(honest)
        forged = bytearray(frame)
        forged[-1] ^= 0x01  # the last byte of the row
        honest_decoded = self._decode(BinaryWireCodec(), frame)
        forged_decoded = self._decode(BinaryWireCodec(), bytes(forged))
        assert (forged_decoded.user_id, forged_decoded.version) == (1, honest.version)
        assert forged_decoded is not honest_decoded
        assert forged_decoded.bloom.row_bytes() != honest_decoded.bloom.row_bytes()
        assert honest_decoded.bloom.row_bytes() == honest.bloom.row_bytes()
        # The honest content still resolves to the honest object afterwards.
        assert self._decode(BinaryWireCodec(), frame) is honest_decoded

    def test_entries_die_with_their_last_holder(self):
        import gc

        from repro.gossip.digest import _INTERNED

        codec = BinaryWireCodec()
        decoded = self._decode(codec, self._frame(_digest(12345)))
        key = next(key for key, value in _INTERNED.items() if value is decoded)
        del decoded, codec
        gc.collect()
        assert key not in _INTERNED


class TestCacheBounds:
    """Every codec cache is bounded; overflow degrades to full rows or a
    loud drop, never to growth."""

    @pytest.fixture(autouse=True)
    def _small_bounds(self, monkeypatch):
        monkeypatch.setattr(codec_module, "_MAX_RECEIVED_DIGESTS", 2)
        monkeypatch.setattr(codec_module, "_MAX_SENT_PER_LINK", 4)

    def _send(self, sender, user_ids, receiver=7):
        adv = DigestAdvertisement(
            digests=tuple(_digest(uid) for uid in user_ids), view=VIEW_PERSONAL
        )
        frame = sender.encode_send(Envelope(1, receiver, adv, None, False))
        sender.commit_sent(receiver)
        return adv, frame

    def _decode(self, receiver, frame):
        bodies, leftover = receiver.split(frame)
        assert leftover == b""
        return receiver.decode_body(bodies[0])["m"]

    def test_evicted_received_digest_makes_the_reference_fail_loudly(self):
        sender, receiver = BinaryWireCodec(), BinaryWireCodec()
        for uid in (1, 2, 3):  # the third full row evicts user 1's
            self._decode(receiver, self._send(sender, [uid])[1])
            assert len(receiver._received) <= 2
        adv, referenced = self._send(sender, [3])
        assert_message_equal(self._decode(receiver, referenced), adv)
        _, stale = self._send(sender, [1])
        with pytest.raises(ValueError, match="digest reference"):
            self._decode(receiver, stale)

    def test_sent_table_sheds_and_falls_back_to_full_rows(self):
        sender = BinaryWireCodec()
        _, full = self._send(sender, [1, 2])
        _, referenced = self._send(sender, [1, 2])
        assert len(referenced) < len(full) / 2
        self._send(sender, [3, 4])
        assert len(sender._sent[7]) == 4
        self._send(sender, [5])  # the fifth pair overflows: the link table is shed
        assert len(sender._sent[7]) <= 4
        adv, again = self._send(sender, [1, 2])
        assert len(again) == len(full)
        assert_message_equal(self._decode(BinaryWireCodec(), again), adv)
        assert not sender._pending


class TestSplitFrames:
    def test_splits_batched_frames(self):
        codec = BinaryWireCodec()
        frames = [
            codec.encode_send(
                Envelope(1, 2, FullProfileRequest(subject_id=i), None, False)
            )
            for i in range(3)
        ]
        bodies, leftover = split_frames(b"".join(frames))
        assert len(bodies) == 3 and leftover == b""

    def test_garbage_prefix_is_leftover(self):
        bodies, leftover = split_frames(b"\xffnot-a-frame")
        assert bodies == [] and leftover == b"\xffnot-a-frame"

    def test_truncated_tail_is_leftover(self):
        codec = BinaryWireCodec()
        frame = codec.encode_send(
            Envelope(1, 2, FullProfileRequest(subject_id=3), None, False)
        )
        payload = frame + frame[: len(frame) // 2]
        bodies, leftover = split_frames(payload)
        assert len(bodies) == 1
        assert leftover == frame[: len(frame) // 2]


class TestProfileFromState:
    """Satellite: replica-freshness (the live version) survives round-trips."""

    def _versioned_profile(self):
        profile = UserProfile(4, [(1, 101), (2, 102)])
        profile.add_all([(3, 103)])
        profile.add_all([(4, 104)])
        assert profile.version > len(profile.actions) - 2
        return profile

    def test_from_state_restores_version(self):
        profile = self._versioned_profile()
        rebuilt = UserProfile.from_state(4, profile.actions, profile.version)
        assert rebuilt.version == profile.version
        assert rebuilt.actions == profile.actions

    def test_from_state_rejects_negative_version(self):
        with pytest.raises(ValueError, match="version"):
            UserProfile.from_state(4, [(1, 101)], -1)

    @pytest.mark.parametrize("codec_name", ["binary", "trace"])
    def test_version_survives_codec_round_trip(self, codec_name, tmp_path):
        profile = self._versioned_profile()
        push = FullProfilePush(subject_id=4, profile=profile)
        if codec_name == "trace":
            decoded = through_trace(push, tmp_path / "trace")
        else:
            decoded = BinaryWireCodec().decode_message(
                BinaryWireCodec().encode_message(push)
            )
        assert decoded.profile.version == profile.version
        assert decoded.profile.actions == profile.actions


class TestTraceFile:
    """The trace file ``ServiceTrace.dump`` writes: length-prefixed records
    that load back whole or not at all."""

    def _dumped(self, tmp_path, messages):
        trace = ServiceTrace()
        for index, message in enumerate(messages):
            query_id = index if index % 2 else None
            trace.append(OP_SEND, index, -index, message, DELIVERED, bool(index % 2), query_id)
        path = tmp_path / "trace"
        assert trace.dump(str(path)) == len(messages)
        return path

    def test_an_empty_file_loads_no_events(self, tmp_path):
        path = tmp_path / "trace"
        path.write_bytes(b"")
        assert len(ServiceTrace.load(str(path))) == 0

    def test_a_file_cut_mid_record_is_refused(self, tmp_path):
        path = self._dumped(tmp_path, [FullProfileRequest(subject_id=3)] * 2)
        whole = path.read_bytes()
        bodies, _ = split_frames(whole)
        boundaries = {0, 4 + len(bodies[0]), len(whole)}
        for end in set(range(len(whole))) - boundaries:
            path.write_bytes(whole[:end])
            with pytest.raises(ValueError):
                ServiceTrace.load(str(path))

    def test_a_garbage_tail_is_refused(self, tmp_path):
        path = self._dumped(tmp_path, [FullProfileRequest(subject_id=3)])
        whole = path.read_bytes()
        # A well-formed FullProfileRequest record but for its flags byte
        # (status index 7 of six, then the unused bit 7 set), or for a
        # sender id wider than the trace's 32-bit column.
        bad_flags = [_frame(bytearray([flags, 0x00, 0x00, 0x04, 0x06])) for flags in (0x1C, 0x80)]
        wide_sender = bytearray([0x00])
        _write_sv(wide_sender, 1 << 40)
        wide_sender += bytes([0x00, 0x04, 0x06])
        for tail in (b"\x00", b"\xffgarbage", *bad_flags, _frame(wide_sender)):
            path.write_bytes(whole + tail)
            with pytest.raises(ValueError):
                ServiceTrace.load(str(path))

    def test_two_rows_under_one_user_and_version_load_back_exactly(self, tmp_path):
        """Off-link bodies carry every digest as a full row: a forged row
        under an honest ``(user, version)`` is not aliased to the honest one."""
        honest = _digest(1)
        forged_row = bytes([honest.bloom.row_bytes()[0] ^ 0x01]) + honest.bloom.row_bytes()[1:]
        forged = intern_digest(
            honest.user_id, honest.version, honest.bloom.num_bits, honest.bloom.num_hashes,
            honest.bloom.approximate_count, forged_row,
        )
        sent = [
            DigestAdvertisement(digests=(honest,), view=VIEW_PERSONAL),
            DigestAdvertisement(digests=(forged, honest), view=VIEW_RANDOM),
        ]
        path = self._dumped(tmp_path, sent)
        loaded = [event.message for event in ServiceTrace.load(str(path)).events]
        for mine, theirs in zip(loaded, sent):
            assert_message_equal(mine, theirs)
        assert loaded[1].digests[0].bloom.row_bytes() == forged_row
        assert loaded[0].digests[0].bloom.row_bytes() == honest.bloom.row_bytes()
        assert loaded[1].digests[1].bloom.row_bytes() == honest.bloom.row_bytes()
