"""Property tests tying ``gossip.sizes`` to the *full* message catalogue.

``total_bytes`` is the single pricing function behind all transport byte
accounting, so the contract is: every concrete
:class:`~repro.simulator.transport.Message` subclass has a price that is
defined, non-negative (strictly positive for non-empty payloads) and
deterministic.  The catalogue is enumerated from ``Message.__subclasses__``
-- adding a message type without teaching the size model about it fails
these tests loudly instead of silently costing 0 bytes on the wire.
"""

from __future__ import annotations

import pytest

from repro.data.models import UserProfile
from repro.data.queries import Query
from repro.gossip.digest import make_digest
from repro.gossip.sizes import (
    DESCRIPTOR_BYTES,
    DIGEST_BYTES,
    TAGGING_ACTION_BYTES,
    USER_ID_BYTES,
    total_bytes,
)
from repro.p3q.query import PartialResult
from repro.simulator.transport import (
    CommonItemsReply,
    CommonItemsRequest,
    DigestAdvertisement,
    DigestOffer,
    DigestPullReply,
    DigestPullRequest,
    FullProfilePush,
    FullProfileRequest,
    Message,
    QueryForward,
    QueryResult,
    RemainingReturn,
)


def _profile(num_actions: int, user_id: int = 1) -> UserProfile:
    return UserProfile(user_id, [(item, item + 100) for item in range(num_actions)])


def _digests(count: int):
    return tuple(
        make_digest(_profile(3, user_id=uid), num_bits=256, num_hashes=3)
        for uid in range(count)
    )


_QUERY = Query(query_id=9, querier=1, tags=(100, 101))


def _partial(num_items: int, num_contributors: int) -> PartialResult:
    return PartialResult(
        query_id=9,
        sender=2,
        scores={item: 1.0 for item in range(num_items)},
        contributors=tuple(range(num_contributors)),
        cycle=1,
    )


#: type -> (builder(n), payload entry size in bytes, is_control).
#: ``builder(n)`` constructs an instance whose payload has ``n`` entries.
CATALOGUE = {
    DigestAdvertisement: (
        lambda n: DigestAdvertisement(descriptors=tuple((uid, 3) for uid in range(n))),
        DESCRIPTOR_BYTES,
        False,
    ),
    DigestOffer: (
        lambda n: DigestOffer(descriptors=tuple((uid, 3) for uid in range(n))),
        DESCRIPTOR_BYTES,
        False,
    ),
    DigestPullRequest: (
        lambda n: DigestPullRequest(descriptors=tuple((uid, 3) for uid in range(n))),
        DESCRIPTOR_BYTES,
        False,
    ),
    DigestPullReply: (
        lambda n: DigestPullReply(digests=_digests(n)),
        DIGEST_BYTES + USER_ID_BYTES,
        False,
    ),
    CommonItemsRequest: (
        lambda n: CommonItemsRequest(subject_id=1, items=frozenset(range(n))),
        0,
        True,
    ),
    CommonItemsReply: (
        lambda n: CommonItemsReply(
            subject_id=1, actions=frozenset((item, item + 100) for item in range(n))
        ),
        TAGGING_ACTION_BYTES,
        False,
    ),
    FullProfileRequest: (lambda n: FullProfileRequest(subject_id=1), 0, True),
    FullProfilePush: (
        lambda n: FullProfilePush(subject_id=1, profile=_profile(n)),
        TAGGING_ACTION_BYTES,
        False,
    ),
    QueryForward: (
        lambda n: QueryForward(query=_QUERY, remaining=tuple(range(n)), cycle=1),
        USER_ID_BYTES,
        False,
    ),
    RemainingReturn: (
        lambda n: RemainingReturn(query_id=9, remaining=tuple(range(n))),
        USER_ID_BYTES,
        False,
    ),
    QueryResult: (
        lambda n: QueryResult(partial=_partial(n, 0)),
        20,  # ITEM_ID_BYTES + SCORE_BYTES per scored item
        False,
    ),
}


def _all_message_types():
    """Every concrete message type reachable from the catalogue base class.

    ``slots=True`` dataclasses leave their discarded pre-slots twin behind in
    ``__subclasses__()``, so only classes that are still the live attribute
    of their defining module count (which also ignores throwaway subclasses
    defined inside tests).
    """
    import sys

    found = set()
    stack = list(Message.__subclasses__())
    while stack:
        cls = stack.pop()
        module = sys.modules.get(cls.__module__)
        if module is not None and getattr(module, cls.__name__, None) is cls:
            found.add(cls)
        stack.extend(cls.__subclasses__())
    return found


class TestCatalogueCoverage:
    def test_every_message_type_has_a_builder(self):
        """A new Message subclass must be added to this catalogue (and to
        gossip.sizes) -- this assertion is the loud failure for step one."""
        missing = _all_message_types() - set(CATALOGUE)
        assert not missing, (
            f"message types missing from the test catalogue: "
            f"{sorted(cls.__name__ for cls in missing)} -- add builders here "
            "and a sizer in repro.gossip.sizes"
        )

    def test_unpriced_message_type_fails_loudly(self):
        """total_bytes refuses unknown message types instead of pricing 0."""

        class Unpriced(Message):
            pass

        with pytest.raises(TypeError, match="Unpriced"):
            total_bytes(Unpriced())


@pytest.mark.parametrize("mtype", sorted(CATALOGUE, key=lambda cls: cls.__name__))
class TestCataloguePricing:
    def test_defined_and_non_negative(self, mtype):
        builder, _entry, _control = CATALOGUE[mtype]
        for count in (0, 1, 5):
            assert total_bytes(builder(count)) >= 0

    def test_deterministic(self, mtype):
        builder, _entry, _control = CATALOGUE[mtype]
        message = builder(4)
        assert total_bytes(message) == total_bytes(message)
        # Two separately-built equal payloads price identically.
        assert total_bytes(builder(4)) == total_bytes(builder(4))

    def test_positive_and_linear_for_payloads(self, mtype):
        builder, entry, control = CATALOGUE[mtype]
        if control:
            for count in (0, 3, 7):
                assert total_bytes(builder(count)) == 0
            return
        base = total_bytes(builder(0))
        for count in (1, 3, 7):
            priced = total_bytes(builder(count))
            assert priced > 0
            assert priced == base + count * entry

    def test_accounting_flags_consistent(self, mtype):
        """Control messages carry no kind; priced payloads carry one."""
        builder, _entry, control = CATALOGUE[mtype]
        message = builder(2)
        if control:
            assert message.kind is None
        else:
            assert message.kind is not None
            assert message.accountable


class TestFailureReplies:
    def test_none_payloads_price_zero_and_are_unaccountable(self):
        reply = CommonItemsReply(subject_id=1, actions=None)
        assert total_bytes(reply) == 0
        assert not reply.accountable
        push = FullProfilePush(subject_id=1, profile=None)
        assert total_bytes(push) == 0
        assert not push.accountable

    def test_personal_view_advertisement_kind(self):
        """The offer and both legs of its pull are personal-digest traffic."""
        for message in (
            DigestOffer(descriptors=()),
            DigestPullRequest(descriptors=()),
            DigestPullReply(digests=()),
        ):
            assert message.kind == "personal_digests"
