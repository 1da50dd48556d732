"""Step 1 drops a neighbour that step 2 already scored at the current versions.

``NeighbourEntry.scored_version`` records the receiver's profile version
that a neighbour's score was computed against by a step-2 round trip at the
entry's digest version.  While neither version moves, asking again would
price the same two profile versions, so ``integrate_effects`` drops the
digest at step 1 even when no replica is stored.  These tests pin when a
neighbour is asked, and that on a static run the skip changes traffic only:
the personal networks, replicas and query results are those of a run that
asks every time.

Step 1 also drops, before pulling its row, an unknown user whose
common-item answer at the same two versions the receiver's own memo holds
empty (``DigestCache.memoized``): the gate would drop it after the pull.
On a run with no loss and no delay that spares pulled rows only.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.data import SyntheticConfig, generate_dataset
from repro.data.queries import QueryWorkloadGenerator
from repro.gossip.digest import DigestCache
from repro.gossip.views import PersonalNetwork
from repro.p3q import P3QConfig, P3QSimulation
from repro.simulator.effects import drive
from repro.simulator.stats import KIND_DIGESTS
from repro.simulator.transport import CommonItemsRequest
from test_advertisements import DIRECT_SPEC, _run


def _asked(monkeypatch, simulation, receiver, provider_id, descriptors):
    """Drive one integration of ``descriptors``; returns the subjects step 2
    asked about."""
    asked = []
    transport = simulation.network.transport
    request = transport.request

    def counting(sender, to, message, query_id=None):
        if type(message) is CommonItemsRequest:
            asked.append(message.subject_id)
        return request(sender, to, message, query_id=query_id)

    monkeypatch.setattr(transport, "request", counting)
    drive(receiver.lazy.integrate_effects(receiver, provider_id, descriptors), simulation.network)
    monkeypatch.setattr(transport, "request", request)
    return asked


@pytest.fixture()
def pair(warm_simulation):
    """A receiver and a replica-less neighbour of it, from ``warm_start``."""
    for receiver in warm_simulation.nodes.values():
        for entry in receiver.personal_network.ranked_entries():
            if entry.profile is None:
                neighbour = warm_simulation.nodes[entry.user_id]
                return warm_simulation, receiver, neighbour
    raise AssertionError("no replica-less neighbour after warm_start")


def _advertise(monkeypatch, simulation, receiver, neighbour):
    """The neighbour offers its own digest to the receiver."""
    digest = neighbour.own_digest()
    return _asked(
        monkeypatch, simulation, receiver, neighbour.node_id, [(digest.user_id, digest.version)]
    )


def test_a_warm_started_entry_is_asked_on_the_first_advertisement(monkeypatch, pair):
    simulation, receiver, neighbour = pair
    for node in simulation.nodes.values():
        assert all(
            entry.scored_version == -1 for entry in node.personal_network.ranked_entries()
        )
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]


def test_a_replica_less_neighbour_with_an_unchanged_digest_is_asked_once(monkeypatch, pair):
    simulation, receiver, neighbour = pair
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    entry = receiver.personal_network.entry(neighbour.node_id)
    assert entry.profile is None
    assert entry.scored_version == receiver.profile.version
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == []
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == []


def test_a_change_to_the_receivers_profile_asks_again(monkeypatch, pair):
    simulation, receiver, neighbour = pair
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    item, tag = next(iter(neighbour.profile.actions))
    assert receiver.profile.add_all([(item, tag), (987_654, 321)]) > 0
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == []


def _offer_old(monkeypatch, simulation, receiver, neighbour, old):
    """The neighbour offers ``old``, an earlier digest of its own, and
    serves its pull as a provider that still held it would."""
    held = neighbour.held_digest

    def still_holding(user_id, version):
        if (user_id, version) == (old.user_id, old.version):
            return old
        return held(user_id, version)

    monkeypatch.setattr(neighbour, "held_digest", still_holding)
    asked = _asked(
        monkeypatch, simulation, receiver, neighbour.node_id, [(old.user_id, old.version)]
    )
    monkeypatch.setattr(neighbour, "held_digest", held)
    return asked


def test_an_advanced_digest_version_asks_again(monkeypatch, pair):
    simulation, receiver, neighbour = pair
    old = neighbour.own_digest()
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    assert neighbour.profile.add_all([(987_654, 321)]) == 1
    assert neighbour.own_digest().version > old.version
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    entry = receiver.personal_network.entry(neighbour.node_id)
    assert entry.digest.version == neighbour.own_digest().version
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == []
    # An older digest than the entry's is dropped while the score stands.
    assert _offer_old(monkeypatch, simulation, receiver, neighbour, old) == []
    # Once the receiver's profile moved it is asked, and the score it gets
    # does not stand for the entry's newer digest version.
    assert receiver.profile.add_all([(987_655, 321)]) == 1
    assert _offer_old(monkeypatch, simulation, receiver, neighbour, old) == [neighbour.node_id]
    assert entry.digest.version > old.version and entry.scored_version == -1
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == [neighbour.node_id]
    assert _advertise(monkeypatch, simulation, receiver, neighbour) == []


def test_the_full_profile_ablation_never_sets_the_slot(synthetic_dataset, small_config):
    config = dataclasses.replace(small_config, three_step_exchange=False)
    simulation = P3QSimulation(synthetic_dataset.copy(), config)
    simulation.bootstrap_random_views()
    simulation.run_lazy(4)
    entries = [
        entry
        for node in simulation.nodes.values()
        for entry in node.personal_network.ranked_entries()
    ]
    assert entries and all(entry.scored_version == -1 for entry in entries)


def _static_run(asks_every_time: bool, monkeypatch):
    dataset = generate_dataset(
        SyntheticConfig(num_users=48, num_items=300, num_tags=90, num_communities=4, seed=11)
    )
    config = P3QConfig(
        network_size=12, storage=3, random_view_size=5, k=10, alpha=0.5,
        digest_bits=1_024, digest_hashes=4, seed=11,
    )
    with monkeypatch.context() as patch:
        if asks_every_time:
            get = PersonalNetwork.get

            def never_scored(network, user_id):
                entry = get(network, user_id)
                if entry is not None:
                    entry.scored_version = -1
                return entry

            patch.setattr(PersonalNetwork, "get", never_scored)
        simulation = P3QSimulation(dataset, config)
        simulation.bootstrap_random_views()
        simulation.run_lazy(8)
        queries = QueryWorkloadGenerator(dataset, seed=11).generate(dataset.user_ids[:12])
        simulation.issue_queries(queries)
        simulation.run_eager(cycles=12)
    return simulation


def _networks(simulation):
    return {
        uid: [
            (
                entry.user_id,
                entry.score,
                entry.digest.user_id,
                entry.digest.version,
                entry.digest.bloom.row_bytes(),
                entry.profile is not None,
            )
            for entry in node.personal_network.ranked_entries()
        ]
        for uid, node in simulation.nodes.items()
    }


def test_on_a_static_run_the_skip_moves_step_2_traffic_only(monkeypatch):
    skipping = _static_run(False, monkeypatch)
    asking = _static_run(True, monkeypatch)
    assert _networks(skipping) == _networks(asking)
    for simulation in (skipping, asking):
        assert any(
            entry.profile is None
            for node in simulation.nodes.values()
            for entry in node.personal_network.ranked_entries()
        )
    assert skipping.stored_replica_versions() == asking.stored_replica_versions()
    assert {
        query_id: (session.snapshots[-1].items, session.snapshots[-1].profiles_used)
        for query_id, session in skipping.sessions().items()
    } == {
        query_id: (session.snapshots[-1].items, session.snapshots[-1].profiles_used)
        for query_id, session in asking.sessions().items()
    }
    fewer, more = skipping.stats.bytes_by_kind(), asking.stats.bytes_by_kind()
    assert fewer["common_item_actions"] < more["common_item_actions"]
    fewer.pop("common_item_actions"), more.pop("common_item_actions")
    assert fewer == more
    assert skipping.stats.total_messages() < asking.stats.total_messages()


def test_dropping_what_the_memo_knows_shares_nothing_spares_pulls_only(monkeypatch):
    """The no-loss, no-delay spec of ``test_advertisements`` (churn of both
    modes, a change day, free riders), with the memo skip and with it
    patched out (``memoized`` answering nothing, so the pair memo then
    re-probes each pair to the same answer)."""
    skipping = _run(monkeypatch, DIRECT_SPEC)
    pulling = _run(
        monkeypatch, DIRECT_SPEC,
        {(DigestCache, "memoized"): lambda cache, receiver, subject_id, version: None},
    )
    fewer, more = skipping.pop("bytes_by_kind"), pulling.pop("bytes_by_kind")
    assert fewer.pop(KIND_DIGESTS) < more.pop(KIND_DIGESTS)
    assert fewer == more
    fewer, more = skipping.pop("bytes_by_cycle"), pulling.pop("bytes_by_cycle")
    assert fewer.keys() == more.keys()
    assert all(fewer[cycle] <= more[cycle] for cycle in fewer)
    assert skipping.pop("messages") < pulling.pop("messages")
    fewer, more = skipping.pop("messages_by_kind"), pulling.pop("messages_by_kind")
    assert fewer.pop(KIND_DIGESTS) < more.pop(KIND_DIGESTS)
    assert fewer == more
    # Networks, stored ids, replica versions, random views and results.
    assert skipping == pulling
