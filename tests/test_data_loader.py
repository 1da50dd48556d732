"""Tests for the synthetic dataset disk cache."""

from __future__ import annotations

import json

import pytest

from repro.data.loader import DatasetFormatError, synthetic_cache_key


def _cache_path(config, cache_dir):
    """Where ``load_or_generate_synthetic`` keeps the trace of ``config``."""
    return cache_dir / f"{synthetic_cache_key(config)}.trace"


class TestSyntheticDatasetCache:
    """The spec-hash disk cache: hits are bit-identical to regeneration."""

    CONFIG_KW = dict(
        num_users=40,
        num_items=260,
        num_tags=80,
        num_communities=4,
        mean_actions_per_user=20,
        seed=17,
    )

    def _fingerprint(self, dataset):
        # Order-sensitive: set iteration order must survive the round trip,
        # it is what downstream runs observe.
        return [(p.user_id, list(p), p.version) for p in dataset.profiles()]

    def test_miss_then_hit_round_trip_is_bit_identical(self, tmp_path):
        from repro.data import SyntheticConfig, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        first, status1 = load_or_generate_synthetic(config, tmp_path)
        second, status2 = load_or_generate_synthetic(config, tmp_path)
        assert (status1, status2) == ("miss", "hit")
        assert self._fingerprint(first) == self._fingerprint(second)

    def test_miss_writes_the_generated_stream_in_generation_order(self, tmp_path):
        """The file a miss writes is the header line, then user ids, counts,
        items and tags as ``int32`` columns over the generator's own action
        lists, in the order it emitted them."""
        from array import array

        from repro.data import SyntheticConfig, SyntheticTraceGenerator, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        load_or_generate_synthetic(config, tmp_path)
        line, _, body = _cache_path(config, tmp_path).read_bytes().partition(b"\n")
        stream = list(SyntheticTraceGenerator(config).iter_user_actions())
        actions = [action for _, user_actions in stream for action in user_actions]
        columns = (
            [user_id for user_id, _ in stream],
            [len(user_actions) for _, user_actions in stream],
            [item for item, _ in actions],
            [tag for _, tag in actions],
        )
        header = json.loads(line)
        assert (header["num_users"], header["num_actions"]) == (len(stream), len(actions))
        assert body == b"".join(array("i", column).tobytes() for column in columns)

    def test_cache_off_without_directory(self):
        from repro.data import SyntheticConfig, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        dataset, status = load_or_generate_synthetic(config, None)
        assert status == "off"
        assert len(dataset) == config.num_users

    def test_different_specs_use_different_keys(self, tmp_path):
        from repro.data import SyntheticConfig, synthetic_cache_key

        a = SyntheticConfig(**self.CONFIG_KW)
        b = SyntheticConfig(**{**self.CONFIG_KW, "seed": 18})
        assert synthetic_cache_key(a) != synthetic_cache_key(b)
        assert synthetic_cache_key(a) == synthetic_cache_key(SyntheticConfig(**self.CONFIG_KW))

    def test_corrupt_cache_falls_back_to_generation(self, tmp_path):
        from repro.data import SyntheticConfig, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        reference, _ = load_or_generate_synthetic(config, tmp_path)
        _cache_path(config, tmp_path).write_bytes(b"garbage")
        dataset, status = load_or_generate_synthetic(config, tmp_path)
        assert status == "miss"
        assert self._fingerprint(dataset) == self._fingerprint(reference)

    def test_truncated_cache_falls_back_to_generation(self, tmp_path):
        """A partially written file (valid header, short body) regenerates."""
        from repro.data import SyntheticConfig, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        reference, _ = load_or_generate_synthetic(config, tmp_path)
        path = _cache_path(config, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        dataset, status = load_or_generate_synthetic(config, tmp_path)
        assert status == "miss"
        assert self._fingerprint(dataset) == self._fingerprint(reference)

    def test_generator_source_change_invalidates_the_key(self, tmp_path, monkeypatch):
        """The cache key embeds the generator fingerprint: bumping it (what a
        generator-source change does) must miss instead of adopting a trace
        the current source would not produce."""
        import repro.data.loader as loader_module
        from repro.data import SyntheticConfig, load_or_generate_synthetic

        config = SyntheticConfig(**self.CONFIG_KW)
        _, status1 = load_or_generate_synthetic(config, tmp_path)
        assert status1 == "miss"
        old_key = loader_module.synthetic_cache_key(config)
        monkeypatch.setattr(
            loader_module, "GENERATOR_FINGERPRINT", "synthetic-trace-v999"
        )
        assert loader_module.synthetic_cache_key(config) != old_key
        _, status2 = load_or_generate_synthetic(config, tmp_path)
        assert status2 == "miss"
        _, status3 = load_or_generate_synthetic(config, tmp_path)
        assert status3 == "hit"

    def test_key_mismatch_rejected(self, tmp_path):
        from repro.data import SyntheticConfig, load_or_generate_synthetic
        from repro.data.loader import load_trace_cache

        config = SyntheticConfig(**self.CONFIG_KW)
        reference, _ = load_or_generate_synthetic(config, tmp_path)
        path = _cache_path(config, tmp_path)
        loaded = load_trace_cache(path, expected_key=synthetic_cache_key(config))
        assert self._fingerprint(loaded) == self._fingerprint(reference)
        with pytest.raises(DatasetFormatError):
            load_trace_cache(path, expected_key="key-b")

    def test_cached_run_simulates_identically(self, tmp_path):
        """A simulation over a cache hit is bit-identical to one over a miss."""
        from repro.data import SyntheticConfig, load_or_generate_synthetic
        from repro.p3q import P3QConfig, P3QSimulation

        config = SyntheticConfig(**self.CONFIG_KW)

        def run(dataset):
            sim = P3QSimulation(
                dataset,
                P3QConfig(network_size=10, storage=3, seed=9, digest_bits=512, digest_hashes=3),
            )
            sim.bootstrap_random_views()
            sim.run_lazy(3)
            return sorted(sim.stats.bytes_by_kind().items()), {
                uid: node.personal_network.member_ids()
                for uid, node in sorted(sim.nodes.items())
            }

        missed, _ = load_or_generate_synthetic(config, tmp_path)
        hit, status = load_or_generate_synthetic(config, tmp_path)
        assert status == "hit"
        assert run(missed) == run(hit)


def _tamper_user_table(path, how: str) -> None:
    """Corrupt a trace cache's user table while keeping header and sizes valid."""
    from array import array

    blob = path.read_bytes()
    header, _, body = blob.partition(b"\n")
    num_users = json.loads(header)["num_users"]
    table = array("i")
    table.frombytes(body[: 8 * num_users])
    uids, counts = table[:num_users], table[num_users:]
    if how == "negative_count":
        # Still sums to num_actions: user 0 swallows user 1's actions and more.
        counts[0] += counts[1] + 7
        counts[1] = -7
    else:
        uids[1] = uids[0]
    path.write_bytes(header + b"\n" + uids.tobytes() + counts.tobytes() + body[8 * num_users:])


@pytest.mark.parametrize("how", ["not_an_object", "missing_num_users", "null_num_users"])
def test_cache_with_a_malformed_header_regenerates(tmp_path, how):
    """A header that is not an object, or whose sizes are not non-negative
    ints, used to crash the load; it must regenerate like any other corrupt
    cache file.  The key stays right, so only the header's shape is wrong."""
    from repro.data import SyntheticConfig, load_or_generate_synthetic

    config = SyntheticConfig(**TestSyntheticDatasetCache.CONFIG_KW)
    reference, _ = load_or_generate_synthetic(config, tmp_path)
    path = _cache_path(config, tmp_path)
    line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    if how == "not_an_object":
        header = 123
    elif how == "missing_num_users":
        del header["num_users"]
    else:
        header["num_users"] = None
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    dataset, status = load_or_generate_synthetic(config, tmp_path)
    assert status == "miss"
    fingerprint = TestSyntheticDatasetCache._fingerprint
    assert fingerprint(None, dataset) == fingerprint(None, reference)
    assert load_or_generate_synthetic(config, tmp_path)[1] == "hit"


@pytest.mark.parametrize("how", ["negative_count", "repeated_user"])
def test_cache_with_a_corrupt_user_table_regenerates(tmp_path, how):
    """A count column that still sums to ``num_actions`` used to be served as
    a hit with wrong profiles; it must regenerate."""
    from repro.data import SyntheticConfig, load_or_generate_synthetic

    config = SyntheticConfig(**TestSyntheticDatasetCache.CONFIG_KW)
    reference, _ = load_or_generate_synthetic(config, tmp_path)
    _tamper_user_table(_cache_path(config, tmp_path), how)
    dataset, status = load_or_generate_synthetic(config, tmp_path)
    assert status == "miss"
    fingerprint = TestSyntheticDatasetCache._fingerprint
    assert fingerprint(None, dataset) == fingerprint(None, reference)
    assert load_or_generate_synthetic(config, tmp_path)[1] == "hit"  # the rewritten file is sound
