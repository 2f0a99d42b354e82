"""Property-based tests for the occupancy machinery (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds_1d import connectivity_probability_1d_exact
from repro.analysis.disconnection import gap_event_probability_estimate
from repro.occupancy.cells import (
    CellOccupancy,
    cell_occupancy_from_positions,
    has_gap_pattern,
)
from repro.occupancy.exact import (
    empty_cells_mean,
    empty_cells_pmf,
    empty_cells_variance,
)


class TestExactOccupancyProperties:
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_distribution_sums_to_one(self, n, cells):
        distribution = [empty_cells_pmf(n, cells, k) for k in range(cells + 1)]
        assert sum(distribution) == pytest.approx(1.0, abs=1e-8)
        assert all(0.0 <= p <= 1.0 for p in distribution)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_mean_bounds(self, n, cells):
        mean = empty_cells_mean(n, cells)
        assert 0.0 <= mean <= cells
        # Theorem 1: E[mu(n, C)] <= C e^{-n/C}.
        assert mean <= cells * math.exp(-n / cells) + 1e-9

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_variance_non_negative(self, n, cells):
        assert empty_cells_variance(n, cells) >= 0.0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_gap_probability_is_probability(self, n, cells):
        assert 0.0 <= gap_event_probability_estimate(n, cells) <= 1.0


class TestBitstringProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bitstring_length_and_alphabet(self, counts):
        bits = _occupancy(counts).bitstring
        assert len(bits) == len(counts)
        assert set(bits) <= {"0", "1"}

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_gap_requires_an_empty_and_two_occupied(self, counts):
        bits = _occupancy(counts).bitstring
        if has_gap_pattern(bits):
            assert bits.count("1") >= 2
            assert bits.count("0") >= 1


def _occupancy(counts):
    return CellOccupancy(
        counts=tuple(counts), cell_length=1.0, line_length=float(len(counts))
    )


class TestLemma1Property:
    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=15),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_gap_implies_disconnected(self, n, cells, random):
        """Lemma 1: a {10*1} pattern forces a disconnected graph."""
        from repro.connectivity.metrics import is_placement_connected

        line_length = float(cells)
        cell_length = 1.0
        positions = np.asarray(
            [random.uniform(0.0, line_length) for _ in range(n)]
        ).reshape(-1, 1)
        occupancy = cell_occupancy_from_positions(positions, line_length, cell_length)
        if occupancy.has_gap:
            assert not is_placement_connected(positions, cell_length)


class TestExactConnectivityFormulaProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=1.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_probability_in_unit_interval(self, n, side, radius):
        value = connectivity_probability_1d_exact(n, side, radius)
        assert 0.0 <= value <= 1.0

    @given(st.integers(min_value=2, max_value=30), st.floats(min_value=10.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_extremes(self, n, side):
        assert connectivity_probability_1d_exact(n, side, 0.0) == 0.0
        assert connectivity_probability_1d_exact(n, side, side) == 1.0
