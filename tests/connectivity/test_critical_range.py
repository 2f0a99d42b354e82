"""Tests for repro.connectivity.critical_range."""

import numpy as np
import pytest

from repro.connectivity.critical_range import critical_range, longest_gap_1d
from repro.connectivity.metrics import is_placement_connected, observe_placement
from repro.exceptions import AnalysisError, SearchError
from repro.simulation.engine import frame_statistics_columns
from repro.simulation.metrics import ranges_for_component_fractions


def component_fraction_range(points, fraction):
    """Smallest range at which one placement's largest component holds
    ``fraction`` of its nodes: the one-frame case of the engine's search."""
    frames = frame_statistics_columns(np.asarray(points, dtype=float)[None])
    return ranges_for_component_fractions(frames, (fraction,))[0]


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

    def test_range_reaches_bottleneck_pair(self):
        """Regression: the returned range must satisfy ``r**2 >= d**2`` for
        the bottleneck pair it was derived from.

        This separation is a concrete case where ``math.sqrt(d_squared)``
        squares to strictly less than ``d_squared``, so a plain square root
        (no ulp round-up) would return a range that fails the
        squared-distance adjacency test for its own bottleneck edge.
        """
        dx, dy = 0.40036971481613076, 0.44812267709330644
        squared = dx * dx + dy * dy
        assert np.sqrt(squared) ** 2 < squared  # the regression's trigger
        points = np.array([[0.0, 0.0], [dx, dy]])
        value = critical_range(points)
        assert value * value >= squared
        assert is_placement_connected(points, value)


class TestComponentFractionRange:
    def test_full_fraction_equals_critical_range(self, small_placement):
        assert component_fraction_range(small_placement, 1.0) == critical_range(
            small_placement
        )

    def test_is_exact_threshold(self, small_placement):
        target = 0.5
        r_half = component_fraction_range(small_placement, target)
        at = observe_placement(small_placement, r_half)
        below = observe_placement(small_placement, r_half - 1e-9)
        assert at.largest_component_fraction >= target
        assert below.largest_component_fraction < target

    def test_monotone_in_fraction(self, small_placement):
        values = [
            component_fraction_range(small_placement, f)
            for f in (0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values)

    def test_trivial_targets(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        # One node out of two is always "connected" at range 0.
        assert component_fraction_range(points, 0.5) == 0.0
        assert component_fraction_range(np.empty((0, 2)), 0.9) == 0.0

    def test_invalid_fraction(self, small_placement):
        with pytest.raises(SearchError):
            component_fraction_range(small_placement, 0.0)
        with pytest.raises(SearchError):
            component_fraction_range(small_placement, 1.1)


class TestLongestGap1d:
    def test_matches_critical_range_in_1d(self, rng):
        points = rng.uniform(0, 1000, size=(60, 1))
        assert longest_gap_1d(points) == pytest.approx(critical_range(points))

    def test_rejects_2d(self, small_placement):
        with pytest.raises(AnalysisError):
            longest_gap_1d(small_placement)

    def test_single_point(self):
        assert longest_gap_1d(np.array([[5.0]])) == 0.0
