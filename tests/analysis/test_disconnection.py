"""Tests for repro.analysis.disconnection."""

import numpy as np
import pytest

from repro.analysis.bounds_1d import connectivity_probability_1d_exact
from repro.analysis.disconnection import (
    gap_event_probability_estimate,
    isolated_node_probability_1d,
)
from repro.exceptions import AnalysisError
from repro.occupancy.cells import cell_occupancy_from_positions


class TestGapEventProbability:
    def test_bounds(self):
        for n in (5, 20, 80):
            value = gap_event_probability_estimate(n, 10)
            assert 0.0 <= value <= 1.0

    def test_decreasing_in_n(self):
        cells = 12
        values = [gap_event_probability_estimate(n, cells) for n in (12, 24, 48, 96, 192)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_many_balls_rarely_gap(self):
        assert gap_event_probability_estimate(500, 10) < 0.01

    def test_few_balls_usually_gap(self):
        assert gap_event_probability_estimate(5, 50) > 0.9

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        n, cells = 20, 10
        side = float(cells)
        trials = 4000
        hits = 0
        for _ in range(trials):
            positions = rng.uniform(0, side, size=(n, 1))
            occupancy = cell_occupancy_from_positions(positions, side, 1.0)
            if occupancy.has_gap:
                hits += 1
        empirical = hits / trials
        assert gap_event_probability_estimate(n, cells) == pytest.approx(
            empirical, abs=0.03
        )

    def test_invalid_arguments(self):
        with pytest.raises(AnalysisError):
            gap_event_probability_estimate(-1, 5)
        with pytest.raises(AnalysisError):
            gap_event_probability_estimate(5, 0)


class TestIsolatedNodeProbability:
    def test_bounds(self):
        assert 0.0 <= isolated_node_probability_1d(50, 1000.0, 10.0) <= 1.0

    def test_large_range_no_isolation(self):
        assert isolated_node_probability_1d(10, 100.0, 100.0) == 0.0

    def test_decreasing_in_range(self):
        values = [
            isolated_node_probability_1d(50, 1000.0, r) for r in (5.0, 20.0, 50.0, 100.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_isolation_is_weaker_than_disconnection(self):
        # P(isolated node) <= P(disconnected): the isolated-node estimate
        # (when below 1) should not exceed the exact disconnection probability.
        n, side, r = 40, 1000.0, 40.0
        isolated = isolated_node_probability_1d(n, side, r)
        disconnected = 1.0 - connectivity_probability_1d_exact(n, side, r)
        if isolated < 1.0:
            assert isolated <= disconnected + 0.05


class TestDisconnectionProbability:
    def test_gap_estimate_lower_bounds_disconnection(self):
        # Lemma 1: the gap event is a sufficient condition for disconnection,
        # so its probability must not exceed the disconnection probability.
        n, side = 30, 100.0
        for r in (5.0, 10.0, 20.0):
            cells = int(side / r)
            gap = gap_event_probability_estimate(n, cells)
            disconnected = 1.0 - connectivity_probability_1d_exact(n, side, r)
            assert gap <= disconnected + 0.02
