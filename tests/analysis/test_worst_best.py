"""Tests for repro.analysis.worst_best_case."""

import math

import numpy as np
import pytest

from repro.analysis.worst_best_case import best_case_range_2d, worst_case_range
from repro.connectivity.critical_range import critical_range
from repro.exceptions import AnalysisError
from repro.geometry.region import Region
from repro.placement.strategies import grid_placement, uniform_placement


class TestWorstCase:
    def test_is_region_diagonal(self):
        assert worst_case_range(100.0, 2) == pytest.approx(100.0 * math.sqrt(2))
        assert worst_case_range(100.0, 1) == pytest.approx(100.0)

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            worst_case_range(0.0)
        with pytest.raises(AnalysisError):
            worst_case_range(10.0, 0)

    def test_corner_placement_needs_roughly_this_range(self, rng):
        from repro.placement.strategies import corner_clusters_placement

        region = Region.square(100.0)
        points = corner_clusters_placement(20, region, rng, spread=0.001)
        needed = critical_range(points)
        assert needed <= worst_case_range(100.0, 2)
        assert needed >= 0.9 * worst_case_range(100.0, 2)


class TestBestCase:
    def test_1d_matches_grid_placement(self):
        # Equal spacing: n nodes on [0, l] sit l / n apart.
        region = Region.line(100.0)
        points = grid_placement(10, region)
        assert critical_range(points) == pytest.approx(100.0 / 10)

    def test_2d_value(self):
        assert best_case_range_2d(16, 100.0) == pytest.approx(25.0)
        assert best_case_range_2d(1, 100.0) == 0.0

    def test_2d_grid_connects_at_predicted_range(self):
        region = Region.square(100.0)
        points = grid_placement(16, region)
        predicted = best_case_range_2d(16, 100.0)
        assert critical_range(points) <= predicted + 1e-9

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            best_case_range_2d(0, 10.0)
        with pytest.raises(AnalysisError):
            best_case_range_2d(5, 0.0)


class TestOrderComparison:
    def test_random_between_best_and_worst(self, rng):
        side = 1000.0
        n = int(side)  # n linear in l, the paper's comparison regime.
        region = Region.line(side)
        best = critical_range(grid_placement(n, region))
        random_range = critical_range(uniform_placement(n, region, rng))
        worst = worst_case_range(side, 1)
        assert best < random_range < worst
        # Theorem 5: a random placement needs a range of order l log l / n.
        assert 0.5 < random_range / (side * math.log(side) / n) < 2.0
