"""Tests for repro.connectivity.critical_range."""

import numpy as np
import pytest

from repro.connectivity.critical_range import (
    critical_range,
    critical_range_for_component_fraction,
    critical_range_toroidal,
    longest_gap_1d,
)
from repro.connectivity.metrics import is_placement_connected, observe_placement
from repro.exceptions import AnalysisError


class TestCriticalRange:
    def test_two_points(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert critical_range(points) == pytest.approx(5.0)

    def test_line_of_points(self):
        points = np.array([[0.0], [1.0], [3.0], [6.0]])
        assert critical_range(points) == pytest.approx(3.0)

    def test_single_point_and_empty(self):
        assert critical_range(np.array([[1.0, 2.0]])) == 0.0
        assert critical_range(np.empty((0, 2))) == 0.0

    def test_is_exact_threshold(self, small_placement):
        r_star = critical_range(small_placement)
        assert is_placement_connected(small_placement, r_star)
        assert not is_placement_connected(small_placement, r_star - 1e-9)

    def test_matches_mst_bottleneck_from_networkx(self, rng):
        networkx = pytest.importorskip("networkx")
        points = rng.uniform(0, 100, size=(40, 2))
        complete = networkx.Graph()
        for i in range(40):
            for j in range(i + 1, 40):
                complete.add_edge(i, j, weight=float(np.linalg.norm(points[i] - points[j])))
        mst = networkx.minimum_spanning_tree(complete)
        bottleneck = max(data["weight"] for _, _, data in mst.edges(data=True))
        assert critical_range(points) == pytest.approx(bottleneck)

    def test_duplicate_points(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert critical_range(points) == pytest.approx(1.0)


class TestCriticalRangeToroidal:
    def test_wraparound_shorter_than_euclidean(self):
        points = np.array([[0.5, 0.5], [99.5, 0.5]])
        assert critical_range_toroidal(points, 100.0) == pytest.approx(1.0)

    def test_trivial_inputs(self):
        assert critical_range_toroidal(np.array([[1.0, 2.0]]), 10.0) == 0.0
        assert critical_range_toroidal(np.empty((0, 2)), 10.0) == 0.0

    def test_range_reaches_bottleneck_pair(self):
        """Regression: the returned range must satisfy ``r**2 >= d**2`` for
        the bottleneck pair it was derived from.

        This separation is a concrete case where ``math.sqrt(d_squared)``
        squares to strictly less than ``d_squared``, so the pre-fix code
        (plain square root, no ulp round-up) returned a range that failed
        the squared-distance adjacency test for its own bottleneck edge.
        """
        dx, dy = 0.40036971481613076, 0.44812267709330644
        squared = dx * dx + dy * dy
        assert np.sqrt(squared) ** 2 < squared  # the regression's trigger
        points = np.array([[0.0, 0.0], [dx, dy]])
        value = critical_range_toroidal(points, 1.0)
        assert value * value >= squared

    def test_connects_random_placements_under_squared_comparison(self, rng):
        from repro.geometry.distance import toroidal_squared_distance_matrix
        from repro.graph.union_find import UnionFind

        side = 100.0
        for _ in range(5):
            points = rng.uniform(0, side, size=(20, 2))
            value = critical_range_toroidal(points, side)
            squared = toroidal_squared_distance_matrix(points, side)
            structure = UnionFind(points.shape[0])
            rows, cols = np.nonzero(squared <= value * value)
            for u, v in zip(rows, cols):
                structure.union(int(u), int(v))
            assert structure.component_count == 1

    def test_agrees_with_euclidean_without_wraparound(self, rng):
        # On a torus much larger than the placement spread no pair wraps, so
        # the toroidal bottleneck equals the Euclidean one.
        points = rng.uniform(0, 10, size=(15, 2))
        assert critical_range_toroidal(points, 1000.0) == pytest.approx(
            critical_range(points)
        )


class TestComponentFractionRange:
    def test_full_fraction_equals_critical_range(self, small_placement):
        assert critical_range_for_component_fraction(
            small_placement, 1.0
        ) == pytest.approx(critical_range(small_placement))

    def test_is_exact_threshold(self, small_placement):
        target = 0.5
        r_half = critical_range_for_component_fraction(small_placement, target)
        at = observe_placement(small_placement, r_half)
        below = observe_placement(small_placement, r_half - 1e-9)
        assert at.largest_component_fraction >= target
        assert below.largest_component_fraction < target

    def test_monotone_in_fraction(self, small_placement):
        values = [
            critical_range_for_component_fraction(small_placement, f)
            for f in (0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values)

    def test_trivial_targets(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        # One node out of two is always "connected" at range 0.
        assert critical_range_for_component_fraction(points, 0.5) == 0.0
        assert critical_range_for_component_fraction(np.empty((0, 2)), 0.9) == 0.0

    def test_invalid_fraction(self, small_placement):
        with pytest.raises(AnalysisError):
            critical_range_for_component_fraction(small_placement, 0.0)
        with pytest.raises(AnalysisError):
            critical_range_for_component_fraction(small_placement, 1.1)


class TestLongestGap1d:
    def test_matches_critical_range_in_1d(self, rng):
        points = rng.uniform(0, 1000, size=(60, 1))
        assert longest_gap_1d(points) == pytest.approx(critical_range(points))

    def test_rejects_2d(self, small_placement):
        with pytest.raises(AnalysisError):
            longest_gap_1d(small_placement)

    def test_single_point(self):
        assert longest_gap_1d(np.array([[5.0]])) == 0.0

