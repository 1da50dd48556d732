"""Property tests for the incremental runtime's cache coherence.

The incremental runtime (``docs/ARCHITECTURE.md``) never recomputes digests,
probe rows, view rankings or storage budgets unless a version bump or a
score/membership mutation forces it.  The property pinned here is the one
that makes that safe: after ANY randomized interleaving of profile updates,
churn departures/rejoins, lazy exchanges and eager query cycles, every
cached structure must be identical to a from-scratch rebuild of the same
state.  A stale-cache bug -- the classic failure mode of incremental systems
-- shows up as a divergence between the cached view and the rebuild.
"""

from __future__ import annotations

import random

import pytest

from repro.bloom import hash_bases
from repro.data import SyntheticConfig, generate_dataset
from repro.data.models import ChangeDay, ProfileChange, UserProfile
from repro.data.queries import QueryWorkloadGenerator
from repro.gossip.digest import DigestCache, intern_digest, make_digest
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator.transport import VIEW_RANDOM, DigestAdvertisement
from test_wire_codec import through_trace


def _build(seed: int, digest_bits: int = 1_024, digest_hashes: int = 4) -> P3QSimulation:
    dataset = generate_dataset(
        SyntheticConfig(num_users=36, num_items=220, num_tags=70, seed=seed)
    )
    config = P3QConfig(
        network_size=10,
        storage=4,
        random_view_size=5,
        digest_bits=digest_bits,
        digest_hashes=digest_hashes,
        seed=seed,
    )
    sim = P3QSimulation(dataset, config)
    sim.bootstrap_random_views()
    return sim


def _random_change_day(sim: P3QSimulation, rng: random.Random, day: int) -> ChangeDay:
    users = rng.sample(sim.dataset.user_ids, k=rng.randint(1, 6))
    changes = []
    for uid in users:
        actions = tuple(
            (rng.randrange(10_000, 10_400), rng.randrange(5_000, 5_100))
            for _ in range(rng.randint(1, 4))
        )
        changes.append(ProfileChange(user_id=uid, new_actions=actions))
    return ChangeDay(day=day, changes=tuple(changes))


def _content(digest):
    """What a digest says: its owner, version and filter bits."""
    bloom = digest.bloom
    return digest.user_id, digest.version, bloom.num_bits, bloom.num_hashes, bloom.row_bytes()


def _assert_caches_match_rebuild(sim: P3QSimulation) -> None:
    config = sim.config
    cache = sim.digest_cache
    for node in sim.nodes.values():
        profile = node.profile

        # 1. The cached own digest equals a from-scratch digest build.
        fresh = make_digest(
            profile, num_bits=config.digest_bits, num_hashes=config.digest_hashes
        )
        assert _content(node.own_digest()) == _content(fresh), (
            f"stale digest for node {node.node_id}"
        )

        # 2. Cached common-item probes equal direct (uncached) Bloom probes,
        #    for every digest this node can currently see in its views.
        seen = list(node.random_view.digests()) + [
            entry.digest for entry in node.personal_network.ranked_entries()
        ]
        for digest in seen:
            cached = cache.common_items(profile, digest)
            direct = {item for item in profile.items if item in digest.bloom}
            assert cached == frozenset(direct), (
                f"stale common-items memo for receiver {node.node_id} / "
                f"subject {digest.user_id} v{digest.version}"
            )

        # 3. The cached ranking equals a from-scratch sort, and the replica
        #    budget (profiles only on the top-c entries) holds.
        network = node.personal_network
        ranked_ids = [entry.user_id for entry in network.ranked_entries()]
        rebuilt = sorted(
            (network.entry(uid) for uid in list(network.member_ids())),
            key=lambda e: (-e.score, e.user_id),
        )
        assert ranked_ids == [entry.user_id for entry in rebuilt], (
            f"stale personal-network ranking for node {node.node_id}"
        )
        top_c = set(ranked_ids[: network.storage])
        for entry in rebuilt:
            if entry.profile is not None:
                assert entry.user_id in top_c, (
                    f"replica outside the top-c budget at node {node.node_id}"
                )

        # 4. The random view's cached membership matches its entries.
        view = node.random_view
        assert view.member_ids() == sorted(
            digest.user_id for digest in view.digests()
        )
        for digest in view.digests():
            assert view._entries[digest.user_id] is digest

        # 5. COW replicas: a profile's version counts its actions exactly
        #    (every add bumps once), so a replica that aliased a mutating
        #    original would immediately break this equality.
        for replica in network.stored_profiles().values():
            assert len(replica) == replica.version
            assert replica.version <= sim.nodes[replica.user_id].profile.version


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_random_interleaving_matches_from_scratch_rebuild(master_seed):
    """Updates, churn rejoins and exchanges never leave a cache stale."""
    rng = random.Random(f"incremental-cache/{master_seed}")
    sim = _build(seed=master_seed)
    workload = QueryWorkloadGenerator(sim.dataset, seed=master_seed)
    offline: list[int] = []
    issued = 0

    for step in range(14):
        op = rng.choice(
            ["lazy", "lazy", "change", "depart", "rejoin", "eager", "change+lazy"]
        )
        if op in ("change", "change+lazy"):
            sim.apply_profile_changes(_random_change_day(sim, rng, day=step))
        if op == "depart" and len(sim.network.online_ids()) > 8:
            departing = rng.sample(sim.network.online_ids(), k=rng.randint(1, 4))
            sim.depart_users(departing)
            offline.extend(departing)
        if op == "rejoin" and offline:
            returning = [offline.pop() for _ in range(min(len(offline), rng.randint(1, 3)))]
            sim.rejoin_users(returning)
        if op in ("lazy", "change+lazy"):
            sim.run_lazy(1)
        if op == "eager":
            online = sim.network.online_ids()
            queriers = rng.sample(online, k=min(2, len(online)))
            sim.issue_queries(
                [workload.query_for(user_id=uid, query_id=1_000 + issued + i)
                 for i, uid in enumerate(queriers)]
            )
            issued += len(queriers)
            sim.run_eager(cycles=2)

        _assert_caches_match_rebuild(sim)


def test_profile_change_invalidates_digest_between_cycles():
    """A version bump mid-run is visible in the very next advertised digest."""
    sim = _build(seed=7)
    sim.run_lazy(1)
    victim = sim.nodes[sim.dataset.user_ids[0]]
    before = victim.own_digest()
    day = ChangeDay(
        day=1,
        changes=(ProfileChange(user_id=victim.node_id, new_actions=((99_991, 9_991),)),),
    )
    sim.apply_profile_changes(day)
    after = victim.own_digest()
    assert after.version == before.version + 1
    assert 99_991 in after.bloom
    assert _content(after) == _content(make_digest(
        victim.profile, num_bits=sim.config.digest_bits, num_hashes=sim.config.digest_hashes
    ))


def test_dirty_set_flush_evicts_superseded_state():
    """The engine's post-cycle flush drops superseded per-user cache state."""
    sim = _build(seed=11)
    sim.run_lazy(2)
    cache = sim.digest_cache
    victim = sim.dataset.user_ids[1]
    assert victim in cache._digests
    day = ChangeDay(
        day=1,
        changes=(ProfileChange(user_id=victim, new_actions=((88_888, 8_888),)),),
    )
    sim.apply_profile_changes(day)
    # The dirty set drains at the next cycle boundary, not synchronously.
    sim.run_lazy(1)
    entry = cache._digests.get(victim)
    assert entry is None or entry.version == sim.nodes[victim].profile.version
    # And the next digest request serves the new version.
    assert cache.digest_for(sim.nodes[victim].profile).version == (
        sim.nodes[victim].profile.version
    )


def _through_trace(digests, path):
    """``digests`` as a trace file carries them: dumped and loaded back."""
    message = DigestAdvertisement(digests=tuple(digests), view=VIEW_RANDOM)
    return through_trace(message, path).digests


@pytest.mark.parametrize("geometry", [(64, 3), (37, 2)], ids=["64x3", "37x2"])
@pytest.mark.parametrize("seed", range(20))
def test_cached_probe_equals_the_naive_probe_in_every_digest_form(seed, geometry, tmp_path):
    """``DigestCache.common_items`` is the naive probe of each receiver item
    against ``digest.bloom``, whatever form the digest arrived in and
    whichever of a user's versions it is.

    The geometries are tiny (37 bits is not a whole number of row bytes) so
    that false positives are the rule: many items find their first probe bit
    set in the digest's row and fail the full probe.
    """
    num_bits, num_hashes = geometry
    rng = random.Random(f"probe-forms/{seed}/{num_bits}")
    sim = _build(seed, digest_bits=num_bits, digest_hashes=num_hashes)
    profiles = [node.profile for node in sim.nodes.values()]
    profiles.append(UserProfile(9_001, []))  # empty, as receiver and as subject
    first_bit_only = 0

    def check(cache, digests):
        nonlocal first_bit_only
        for digest in digests:
            bloom = digest.bloom
            for receiver in profiles:
                naive = {item for item in receiver.items if item in bloom}
                assert cache.common_items(receiver, digest) == naive
                assert cache.probe(receiver, digest) == naive
                assert bool(cache.common_items(receiver, digest)) == bool(naive)
                if bloom.num_bits == num_bits:
                    row = bloom.row_bytes()
                    for item in receiver.items - naive:
                        first = hash_bases(item)[0] % num_bits
                        first_bit_only += row[first >> 3] >> (first & 7) & 1

    built = DigestCache(num_bits, num_hashes)
    originals = [built.digest_for(profile) for profile in profiles]
    check(built, originals)
    # A cache of its own per form: the pair memo would otherwise answer for
    # the (user, version) pairs priced above without touching the digest.
    check(
        DigestCache(num_bits, num_hashes),
        [
            intern_digest(
                digest.user_id, digest.version, num_bits, num_hashes,
                digest.bloom.approximate_count, bytes(digest.bloom.row_bytes()),
            )
            for digest in originals
        ],
    )
    check(DigestCache(num_bits, num_hashes), _through_trace(originals, tmp_path / "trace"))
    # Foreign geometry: priced by direct probes, never through the rows.
    check(built, [make_digest(profile, num_bits=128, num_hashes=2) for profile in profiles[:5]])

    # Two versions of the same users in circulation, old and new in turn.
    day = _random_change_day(sim, rng, day=1)
    sim.apply_profile_changes(day)
    changed = {change.user_id for change in day.changes}
    old = [digest for digest in originals if digest.user_id in changed]
    built.evict_profiles(changed)
    new = [built.digest_for(sim.nodes[digest.user_id].profile) for digest in old]
    assert all(after.version > before.version for before, after in zip(old, new))
    for _ in range(3):
        check(built, old)
        check(built, new)
    assert first_bit_only > 0
