"""Columnar node state: the store and the object crossing.

The contract under test (see ``repro/data/columnar.py``) is that the
columnar representation is a *layout*, never a behaviour change:

* a :class:`ColumnarStore` holds exactly the action lists the generator
  emitted (same order, same versions);
* :meth:`UserProfile.from_columnar` / :meth:`BloomFilter.from_columnar`
  reproduce the object pipeline bit for bit, so a :class:`ColumnarDataset`
  is indistinguishable from the object dataset it replaces -- down to the
  digest bytes a simulation built on it gossips;
* nothing else lives here: no second digest form, no process-wide memo.
"""

from __future__ import annotations

import pytest

from repro.bloom import BloomFilter
from repro.data import (
    ColumnarDataset,
    ColumnarStore,
    SyntheticConfig,
    SyntheticTraceGenerator,
    UserProfile,
    generate_dataset,
    load_or_generate_columnar,
)
from repro.data import columnar as columnar_module
from repro.p3q import P3QConfig, P3QSimulation

CONFIG = SyntheticConfig(
    num_users=40,
    num_items=260,
    num_tags=80,
    num_communities=4,
    mean_actions_per_user=18,
    seed=23,
)

BITS, HASHES = 1_024, 4


@pytest.fixture(scope="module")
def store() -> ColumnarStore:
    generator = SyntheticTraceGenerator(CONFIG)
    return ColumnarStore.from_action_stream(generator.iter_user_actions())


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(CONFIG)


# ------------------------------------------------------------------- the store


class TestColumnarStore:
    def test_rows_mirror_the_generated_action_lists(self, store, dataset):
        assert len(store) == len(dataset)
        raw = dict(SyntheticTraceGenerator(CONFIG).iter_user_actions())
        for row, uid in enumerate(store.uids):
            profile = dataset.profile(uid)
            # Stored order is the exact generation order; the profile's set
            # holds the same actions (its own iteration order is pinned by
            # the from_columnar crossing test below).
            assert store.actions_of_row(row) == raw[uid]
            assert set(store.actions_of_row(row)) == set(profile)
            assert store.versions[row] == profile.version

    def test_row_of_dense_and_sparse_ids(self):
        dense = ColumnarStore.from_action_stream([(0, [(1, 2)]), (1, [(3, 4)])])
        assert dense.row_of(1) == 1
        assert dense.row_of(7) is None
        sparse = ColumnarStore.from_action_stream([(5, [(1, 2)]), (90, [(3, 4)])])
        assert sparse.row_of(5) == 0
        assert sparse.row_of(90) == 1
        assert sparse.row_of(0) is None

    def test_from_cache_arrays_equals_streaming_construction(self, store):
        uids = list(store.uids)
        counts = [
            store.offsets[row + 1] - store.offsets[row] for row in range(len(store))
        ]
        adopted = ColumnarStore.from_cache_arrays(
            uids, counts, store.items, store.tags
        )
        assert list(adopted.uids) == uids
        for row in range(len(store)):
            assert adopted.actions_of_row(row) == store.actions_of_row(row)
            assert adopted.versions[row] == store.versions[row]


# ------------------------------------------------------------- object crossing


class TestObjectCrossing:
    def test_profile_from_columnar_is_state_identical(self, store, dataset):
        for uid in dataset.user_ids:
            reference = dataset.profile(uid)
            materialized = UserProfile.from_columnar(store, uid)
            # Order-sensitive: set iteration order is what downstream
            # deterministic runs observe.
            assert list(materialized) == list(reference)
            assert materialized.version == reference.version

    def test_profile_from_columnar_unknown_user(self, store):
        with pytest.raises(KeyError):
            UserProfile.from_columnar(store, 10_000)

    def test_from_columnar_filter_probes_like_the_original(self, store):
        items = sorted({item for item, _tag in store.actions_of_row(5)})
        reference = BloomFilter.from_items(items, num_bits=BITS, num_hashes=HASHES)
        bloom = BloomFilter.from_columnar(
            BITS, HASHES, reference.row_bytes(), len(items)
        )
        assert bloom.raw_bits == reference.raw_bits
        assert bloom.approximate_count == len(items)
        assert all(item in bloom for item in items)

    def test_columnar_dataset_equals_object_dataset(self, store, dataset):
        columnar = ColumnarDataset(store)
        assert len(columnar) == len(dataset)
        assert columnar.user_ids == dataset.user_ids
        assert 0 in columnar and 10_000 not in columnar
        fingerprint = [(p.user_id, list(p), p.version) for p in columnar.profiles()]
        reference = [(p.user_id, list(p), p.version) for p in dataset.profiles()]
        assert fingerprint == reference

    def test_columnar_dataset_materializes_lazily(self, store):
        columnar = ColumnarDataset(store)
        assert not columnar._profiles
        columnar.profile(0)
        assert set(columnar._profiles) == {0}

    def test_copy_preserves_materialized_divergence(self, store):
        columnar = ColumnarDataset(store)
        profile = columnar.profile(0)
        profile.add(9_999, 1)
        clone = columnar.copy()
        assert list(clone.profile(0)) == list(profile)
        assert clone.profile(0) is not profile
        # Untouched users stay columnar in the clone.
        assert set(clone._profiles) == {0}


# ----------------------------------------------------------------- layout only


class TestLayoutOnly:
    """One digest form: a columnar dataset changes where the actions sit
    until a profile is touched, and nothing about the digests built on it."""

    TRACE = SyntheticConfig(num_users=200, seed=3)

    def _bootstrapped(self, dataset) -> P3QSimulation:
        simulation = P3QSimulation(dataset, P3QConfig(network_size=20, storage=3, seed=3))
        simulation.bootstrap_random_views()
        return simulation

    def test_digest_bytes_equal_the_object_datasets(self):
        flat = self._bootstrapped(load_or_generate_columnar(self.TRACE)[0])
        objects = self._bootstrapped(generate_dataset(self.TRACE))
        assert list(flat.nodes) == list(objects.nodes)
        for uid, node in flat.nodes.items():
            assert (
                node.own_digest().bloom.row_bytes()
                == objects.nodes[uid].own_digest().bloom.row_bytes()
            )
        assert not hasattr(flat, "digest_matrix")

    def test_module_holds_no_process_wide_memo(self):
        assert not hasattr(columnar_module, "_MASK_INTS")
