"""Tests for NRA's ranked lists and candidate heap, and the exact oracle."""

from __future__ import annotations

import pytest

from repro.topk.exact import exact_top_k, merge_score_maps
from repro.topk.heap import CandidateHeap
from repro.topk.nra import RankedList


class TestRankedList:
    def test_from_scores_sorts_descending_and_drops_zeros(self):
        ranked = RankedList.from_scores(0, {1: 2.0, 2: 5.0, 3: 0.0})
        assert ranked.entries == ((2, 5.0), (1, 2.0))

    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError):
            RankedList(list_id=0, entries=((1, 1.0), (2, 3.0)))


class TestExactOracle:
    def test_merge_sums_scores(self):
        merged = merge_score_maps([{1: 2.0, 2: 1.0}, {1: 3.0}])
        assert merged == {1: 5.0, 2: 1.0}

    def test_exact_top_k_orders_by_score_then_item(self):
        result = exact_top_k([{1: 2.0, 2: 2.0, 3: 5.0}], k=2)
        assert result == [(3, 5.0), (1, 2.0)]

    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            exact_top_k([{1: 1.0}], k=0)


class TestCandidateHeap:
    def test_observe_and_rank(self):
        heap = CandidateHeap()
        heap.observe(1, 0, 3.0)
        heap.observe(2, 0, 5.0)
        heap.observe(1, 1, 4.0)
        ranked = heap.ranked({0: 0.0, 1: 0.0})
        assert ranked[0][0] == 1  # 3 + 4 = 7 beats 5
        assert ranked[0][1] == 7.0

    def test_best_case_uses_last_seen_bounds(self):
        heap = CandidateHeap()
        heap.observe(1, 0, 3.0)
        ranked = heap.ranked({0: 3.0, 1: 2.0})
        # Item 1 unseen in list 1: best case adds the bound 2.0.
        assert ranked[0][2] == 5.0

    def test_is_confident_blocks_on_unseen_threshold(self):
        heap = CandidateHeap()
        heap.observe(1, 0, 1.0)
        # Unseen objects could reach 1.0 + 5.0, so we cannot be confident.
        assert not heap.is_confident(1, {0: 1.0, 1: 5.0})
        assert heap.is_confident(1, {0: 0.0, 1: 0.0})

    def test_is_confident_requires_k_candidates(self):
        heap = CandidateHeap()
        heap.observe(1, 0, 1.0)
        assert not heap.is_confident(2, {0: 0.0})

