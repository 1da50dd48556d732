"""Tests for the incremental (asynchronous) NRA of Algorithm 4."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.topk.exact import exact_top_k, merge_score_maps
from repro.topk.incremental import IncrementalNRA

score_map = st.dictionaries(
    keys=st.integers(0, 25),
    values=st.floats(min_value=0.5, max_value=9.0, allow_nan=False),
    max_size=12,
)
batches = st.lists(st.lists(score_map, max_size=3), min_size=1, max_size=5)


class TestBasics:
    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            IncrementalNRA(0)

    def test_single_list_single_cycle(self):
        nra = IncrementalNRA(2)
        top = nra.process_cycle([{1: 5.0, 2: 3.0, 3: 1.0}])
        assert [item for item, _ in top] == [1, 2]

    def test_duplicate_list_id_rejected(self):
        nra = IncrementalNRA(1)
        nra.add_list({1: 1.0}, list_id=7)
        with pytest.raises(ValueError):
            nra.add_list({2: 1.0}, list_id=7)

    def test_empty_cycle_keeps_previous_results(self):
        nra = IncrementalNRA(1)
        first = nra.process_cycle([{1: 5.0}])
        second = nra.process_cycle([])
        assert first == second

    def test_results_incorporate_later_lists(self):
        nra = IncrementalNRA(1)
        nra.process_cycle([{1: 5.0}])
        top = nra.process_cycle([{2: 7.0}])
        assert top[0][0] == 2

    def test_finalize_exhausts_everything(self):
        nra = IncrementalNRA(3)
        nra.process_cycle([{i: float(i) for i in range(1, 10)}])
        final = nra.finalize()
        assert [item for item, _ in final] == [9, 8, 7]
        assert nra.sequential_accesses >= 9

    def test_scores_are_summed_across_lists(self):
        nra = IncrementalNRA(1)
        nra.process_cycle([{1: 2.0, 2: 5.0}])
        top = nra.process_cycle([{1: 4.0}])
        # item 1 now totals 6 and must beat item 2's 5.
        assert top[0] == (1, 6.0)


class TestAgainstOracle:
    @given(batches, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_finalize_matches_exact_oracle(self, cycles, k):
        """After finalize, the result equals the exact top-k over all lists,
        no matter how the lists were batched across cycles."""
        nra = IncrementalNRA(k)
        all_maps = []
        for batch in cycles:
            nra.process_cycle(batch)
            all_maps.extend(batch)
        final = nra.finalize()
        expected = exact_top_k(all_maps, k=k)
        assert [item for item, _ in final] == [item for item, _ in expected]
        assert [score for _, score in final] == pytest.approx(
            [score for _, score in expected]
        )

    @given(batches, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_intermediate_results_have_valid_scores(self, cycles, k):
        """Per-cycle worst-case scores never exceed the true final scores."""
        nra = IncrementalNRA(k)
        all_maps = []
        for batch in cycles:
            all_maps.extend(batch)
            top = nra.process_cycle(batch)
            true_scores = merge_score_maps(all_maps)
            for item, worst in top:
                assert worst <= true_scores.get(item, 0.0) + 1e-9

    @given(st.lists(score_map, min_size=1, max_size=6), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_batching_does_not_change_the_final_answer(self, maps, k):
        """Delivering all lists at once or one per cycle gives the same result.

        Scores are compared approximately: the two schedules observe the same
        per-list scores but may sum them in a different order.
        """
        together = IncrementalNRA(k)
        together.process_cycle(maps)
        one_by_one = IncrementalNRA(k)
        for scores in maps:
            one_by_one.process_cycle([scores])
        result_a = together.finalize()
        result_b = one_by_one.finalize()
        assert [item for item, _ in result_a] == [item for item, _ in result_b]
        assert [score for _, score in result_a] == pytest.approx(
            [score for _, score in result_b]
        )

    @given(st.lists(score_map, min_size=1, max_size=5), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_confident_early_stop_is_still_a_valid_topk(self, maps, k):
        """Even without finalize, every returned item's exact score is at
        least as large as the exact score of any item it displaced (up to
        ties)."""
        nra = IncrementalNRA(k)
        top = nra.process_cycle(maps)
        true_scores = merge_score_maps(maps)
        if len(true_scores) <= k:
            return
        returned = {item for item, _ in top}
        kth_true = sorted(true_scores.values(), reverse=True)[k - 1]
        for item, score in true_scores.items():
            if score > kth_true + 1e-9:
                assert item in returned


def _seeded_batches(seed: int):
    """A few cycles of partial result lists, ties and empty cycles included."""
    rng = random.Random(seed)
    cycles = []
    for _ in range(rng.randint(1, 5)):
        cycles.append(
            [
                {
                    item: float(rng.randint(1, 8))
                    for item in rng.sample(range(30), rng.randint(1, 12))
                }
                for _ in range(rng.randint(0, 4))
            ]
        )
    return cycles, rng.randint(1, 6)


class TestFrozen:
    """A merger frozen after its last list is its answer and nothing else."""

    @pytest.mark.parametrize("seed", range(24))
    def test_answers_like_a_finalized_twin(self, seed):
        cycles, k = _seeded_batches(seed)
        frozen, twin = IncrementalNRA(k), IncrementalNRA(k)
        for batch in cycles:
            assert frozen.process_cycle(batch) == twin.process_cycle(batch)
        exact = twin.finalize()
        assert frozen.freeze() == exact
        assert frozen._heap is None and frozen._lists is None
        assert frozen.current_top_k() == twin.current_top_k() == exact
        assert frozen.current_items() == twin.current_items()
        assert frozen.finalize() == exact and frozen.freeze() == exact
        assert frozen.sequential_accesses == twin.sequential_accesses

    def test_the_answer_handed_out_is_a_copy(self):
        nra = IncrementalNRA(2)
        nra.process_cycle([{1: 3.0, 2: 1.0}])
        nra.freeze().clear()
        nra.current_top_k().clear()
        assert nra.current_top_k() == [(1, 3.0), (2, 1.0)]

    def test_feeding_a_frozen_merger_raises(self):
        nra = IncrementalNRA(2)
        nra.process_cycle([{1: 3.0}])
        nra.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            nra.add_list({2: 9.0})
        with pytest.raises(RuntimeError, match="frozen"):
            nra.process_cycle([{2: 9.0}])
        with pytest.raises(RuntimeError, match="frozen"):
            nra.process_cycle()
        assert nra.current_top_k() == [(1, 3.0)]
