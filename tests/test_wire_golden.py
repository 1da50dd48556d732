"""Golden wire bytes: the runtime frames and the trace file, pinned as data.

The ``frames`` of ``tests/data/wire_golden.json`` were generated by running
:func:`build_frames` against the tree *before* the codec was rebuilt on one
per-message field table (two hand-written codecs, four tables).  The tests
assert that the table-driven codec still produces exactly those frames,
byte for byte -- the ``transport_golden.json`` pattern: old behaviour
pinned as data, not as code.

``trace_hex`` is the trace file :func:`build_trace` dumps of
:func:`golden_events`.  It was pinned once, when the trace file moved from
JSON Lines to length-prefixed binary records; the JSON Lines file it
replaced and this one load to equal events.  The tests assert that
``ServiceTrace.dump`` still writes it byte for byte and that it loads back
to the events that made it.

Before regenerating, list every frame that moved, with the differing byte
offsets and values (read-only; exits 1 if any frame differs)::

    PYTHONPATH=src python tests/test_wire_golden.py --diff

Regenerate the frames (only ever against a tree whose wire format is
known-good, with the ``--diff`` output as the stated reason the pin moved)
with the command below.  It keeps ``trace_hex`` as it is: the trace file is
a format files already on disk are written in, so a change to it is its own
stated decision, never a side effect of moving a frame::

    PYTHONPATH=src python tests/test_wire_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro.data.interning import intern_action
from repro.data.models import UserProfile
from repro.data.queries import Query
from repro.gossip.digest import make_digest
from repro.p3q.query import PartialResult
from repro.service.codec import BinaryWireCodec
from repro.service.trace import ServiceTrace
from repro.simulator.transport import (
    DELIVERED,
    DROPPED,
    OP_REPLY,
    OP_REQUEST,
    OP_SEND,
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
    WireEvent,
)
from test_wire_codec import assert_message_equal

GOLDEN_PATH = Path(__file__).parent / "data" / "wire_golden.json"


def _profile(user_id: int, num_actions: int) -> UserProfile:
    profile = UserProfile(user_id, [(item, item + 100) for item in range(num_actions)])
    profile.add_all([(900 + user_id, 77)])  # the live version outruns the initial action count
    return profile


def _digest(user_id: int, num_actions: int):
    return make_digest(_profile(user_id, num_actions), num_bits=256, num_hashes=3)


def golden_messages() -> List[Tuple[str, Message]]:
    """One message per catalogue type plus the ``None``-payload variants."""
    query = Query(query_id=9, querier=-3, tags=(101, 205, 7), source_item=None)
    sourced = Query(query_id=10, querier=4, tags=(5,), source_item=321)
    partial = PartialResult(
        query_id=9,
        sender=12,
        scores={40: 1.5, 3: 0.25, 70000: 1e-9},
        contributors=(12, -1, 300),
        cycle=4,
    )
    return [
        ("digests", DigestAdvertisement(descriptors=((1, 4), (200, 7), (-5, 3)))),
        ("digests_empty", DigestAdvertisement(descriptors=())),
        ("offer", DigestOffer(descriptors=((1, 4), (200, 7), (-5, 3)))),
        ("offer_empty", DigestOffer(descriptors=())),
        ("pull_req", DigestPullRequest(descriptors=((200, 7), (-5, 3)))),
        ("pull_rep", DigestPullReply(digests=(_digest(200, 6), _digest(-5, 2)))),
        ("pull_rep_empty", DigestPullReply(digests=())),
        ("common_req", CommonItemsRequest(subject_id=8, items=frozenset({5, 1, 130, 70000}))),
        (
            "common_rep",
            CommonItemsReply(
                subject_id=8,
                actions=tuple(
                    sorted(intern_action(i, t) for i, t in ((5, 9), (1, 300), (5, 2)))
                ),
            ),
        ),
        ("common_rep_none", CommonItemsReply(subject_id=8, actions=None)),
        ("profile_req", FullProfileRequest(subject_id=-2)),
        ("profile_push", FullProfilePush(subject_id=6, profile=_profile(6, 5))),
        ("profile_push_none", FullProfilePush(subject_id=6, profile=None)),
        ("query_fwd", QueryForward(query=query, remaining=(4, 5, 900), cycle=2)),
        ("query_fwd_sourced", QueryForward(query=sourced, remaining=(), cycle=0)),
        ("remaining_ret", RemainingReturn(query_id=9, remaining=(7, 8))),
        ("query_res", QueryResult(partial=partial)),
    ]


def build_frames() -> Dict[str, str]:
    """Hex of every runtime frame shape."""
    codec = BinaryWireCodec()
    frames: Dict[str, str] = {}
    for name, message in golden_messages():
        request = Envelope(3, 4, message, 9, True)
        send = Envelope(-2, 130, message, None, False)
        frames[f"{name}/request"] = codec.encode_request(request, 17).hex()
        frames[f"{name}/send_no_query"] = codec.encode_send(send).hex()
        frames[f"{name}/reply"] = codec.encode_reply(300, DELIVERED, message).hex()
    frames["none/reply_dropped"] = codec.encode_reply(1, DROPPED, None).hex()
    return frames


def diff_frames(golden: Dict[str, str], frames: Dict[str, str]) -> List[str]:
    """One line per frame that differs: each differing byte offset with its
    golden and current values, a length change, or a name on one side only."""
    lines = []
    for name in sorted(set(golden) | set(frames)):
        if name not in frames:
            lines.append(f"{name}: only in the golden")
            continue
        if name not in golden:
            lines.append(f"{name}: not in the golden")
            continue
        old, new = bytes.fromhex(golden[name]), bytes.fromhex(frames[name])
        changes = [
            f"byte {offset}: 0x{a:02x} -> 0x{b:02x}"
            for offset, (a, b) in enumerate(zip(old, new))
            if a != b
        ]
        if len(old) != len(new):
            changes.append(f"length {len(old)} -> {len(new)}")
        if changes:
            lines.append(f"{name}: " + ", ".join(changes))
    return lines


def golden_events() -> List[WireEvent]:
    ops = (OP_REQUEST, OP_REPLY, OP_SEND)
    return [
        WireEvent(
            op=ops[index % 3],
            sender=index,
            receiver=-index,
            message=message,
            status=DELIVERED if index % 2 else DROPPED,
            accounted=bool(index % 2),
            query_id=None if index % 4 == 0 else index,
        )
        for index, (_, message) in enumerate(golden_messages())
    ]


def build_trace(tmp_path: Path) -> bytes:
    """The trace file ``ServiceTrace.dump`` writes of :func:`golden_events`."""
    trace = ServiceTrace()
    for event in golden_events():
        trace.append(*event)
    path = tmp_path / "trace"
    trace.dump(str(path))
    return path.read_bytes()


def _golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_binary_frames_are_byte_identical_to_the_golden():
    golden = _golden()["frames"]
    frames = build_frames()
    assert set(frames) == set(golden)
    for name, frame_hex in golden.items():
        assert frames[name] == frame_hex, name


def test_diff_names_each_moved_byte():
    golden = {"same": "0102", "moved": "0100ff", "gone": "00"}
    frames = {"same": "0102", "moved": "0101ff00", "new": "00"}
    assert diff_frames(golden, golden) == []
    assert diff_frames(golden, frames) == [
        "gone: only in the golden",
        "moved: byte 1: 0x00 -> 0x01, length 3 -> 4",
        "new: not in the golden",
    ]


def test_golden_frames_decode_to_the_messages_that_made_them():
    golden = _golden()["frames"]
    for name, message in golden_messages():
        for shape in ("request", "send_no_query", "reply"):
            codec = BinaryWireCodec()
            bodies, leftover = codec.split(bytes.fromhex(golden[f"{name}/{shape}"]))
            assert leftover == b"" and len(bodies) == 1
            assert_message_equal(codec.decode_body(bodies[0])["m"], message)


def test_trace_dump_is_byte_identical_to_the_golden(tmp_path):
    assert build_trace(tmp_path).hex() == _golden()["trace_hex"]


def test_golden_trace_loads_to_the_events_that_made_it(tmp_path):
    path = tmp_path / "golden_trace"
    path.write_bytes(bytes.fromhex(_golden()["trace_hex"]))
    loaded = ServiceTrace.load(str(path))
    expected = golden_events()
    assert len(loaded) == len(expected)
    for event, want in zip(loaded.events, expected):
        assert event._replace(message=None) == want._replace(message=None)
        assert_message_equal(event.message, want.message)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--diff" in sys.argv:
        moved = diff_frames(_golden()["frames"], build_frames())
        print("\n".join(moved) if moved else "every frame matches the golden")
        sys.exit(1 if moved else 0)
    if "--regen" not in sys.argv:
        sys.exit("pass --diff or --regen (see the module docstring)")
    payload = {**_golden(), "frames": build_frames()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
