"""Tests for the analytical model of Section 2.4 (Theorems 2.1-2.4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.p3q.analysis import (
    alpha_sweep,
    cycles_to_complete,
    max_partial_results,
    max_remaining_list_messages,
    max_users_involved,
    simulate_remaining_list_drain,
)

lengths = st.integers(10, 2_000)
founds = st.integers(1, 50)
alphas = st.floats(min_value=0.01, max_value=0.99)


class TestClosedForm:
    def test_zero_length_takes_zero_cycles(self):
        assert cycles_to_complete(0, 10, 0.5) == 0.0

    def test_alpha_one_is_linear_polling(self):
        assert cycles_to_complete(100, 10, 1.0) == pytest.approx(10.0)

    def test_alpha_zero_is_linear_chain(self):
        assert cycles_to_complete(100, 10, 0.0) == pytest.approx(10.0)

    def test_paper_configuration_is_logarithmic(self):
        """L=990, X=10 at alpha=0.5: R should be O(log2 L) ~ 7 cycles, far
        below the 99 cycles of the linear extremes."""
        r_half = cycles_to_complete(990, 10, 0.5)
        assert 5 <= r_half <= 10
        assert cycles_to_complete(990, 10, 1.0) == pytest.approx(99.0)

    def test_symmetry_around_half(self):
        assert cycles_to_complete(500, 5, 0.3) == pytest.approx(
            cycles_to_complete(500, 5, 0.7)
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cycles_to_complete(-1, 10, 0.5)
        with pytest.raises(ValueError):
            cycles_to_complete(10, 0, 0.5)
        with pytest.raises(ValueError):
            cycles_to_complete(10, 10, 1.5)

    @given(lengths, founds, alphas)
    @settings(max_examples=100)
    def test_alpha_half_is_never_worse(self, length, found, alpha):
        """Theorem 2.2: R(0.5) <= R(alpha) for every alpha."""
        assert cycles_to_complete(length, found, 0.5) <= cycles_to_complete(
            length, found, alpha
        ) + 1e-9

    @given(lengths, founds, st.floats(min_value=0.5, max_value=0.98), st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=100)
    def test_monotonicity_on_both_sides(self, length, found, high, low):
        """R is increasing on [0.5, 1) and decreasing on (0, 0.5)."""
        higher = min(0.99, high + 0.01)
        assert cycles_to_complete(length, found, high) <= cycles_to_complete(
            length, found, higher
        ) + 1e-9
        lower = max(0.005, low - 0.005)
        assert cycles_to_complete(length, found, low) <= cycles_to_complete(
            length, found, lower
        ) + 1e-9

    def test_alpha_sweep_contains_requested_values(self):
        sweep = alpha_sweep(100, 10, alphas=(0.2, 0.5))
        assert set(sweep) == {0.2, 0.5}


class TestDrainSimulation:
    def test_matches_closed_form_at_half(self):
        trace = simulate_remaining_list_drain(990, 10, 0.5)
        closed = cycles_to_complete(990, 10, 0.5)
        assert trace.cycles == math.ceil(closed) or trace.cycles == math.floor(closed)

    @given(lengths, founds, st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_simulation_within_one_cycle_of_closed_form(self, length, found, alpha):
        trace = simulate_remaining_list_drain(length, found, alpha)
        closed = cycles_to_complete(length, found, alpha)
        assert abs(trace.cycles - math.ceil(closed)) <= 1

    def test_longest_per_cycle_is_non_increasing(self):
        trace = simulate_remaining_list_drain(500, 7, 0.5)
        values = trace.longest_per_cycle
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_remaining_list_drain(10, 0, 0.5)
        with pytest.raises(ValueError):
            simulate_remaining_list_drain(10, 5, 2.0)


class TestBounds:
    def test_user_bound_is_power_of_two(self):
        assert max_users_involved(3.0) == 8
        assert max_users_involved(3.2) == 16

    def test_partial_result_bound(self):
        assert max_partial_results(3.0) == 7

    def test_message_bound(self):
        assert max_remaining_list_messages(3.0) == 14

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            max_users_involved(-1)

    @given(lengths, founds)
    @settings(max_examples=60, deadline=None)
    def test_drain_holders_respect_user_bound(self, length, found):
        """The mechanistic drain never involves more holders than 2^R."""
        trace = simulate_remaining_list_drain(length, found, 0.5)
        closed = cycles_to_complete(length, found, 0.5)
        assert trace.holders <= max_users_involved(closed)
