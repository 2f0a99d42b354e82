"""Tests for repro.placement.strategies."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.placement.strategies import (
    corner_clusters_placement,
    grid_placement,
    uniform_placement,
)


class TestUniformPlacement:
    def test_shape_and_bounds(self, square_region, rng):
        points = uniform_placement(100, square_region, rng)
        assert points.shape == (100, 2)
        assert square_region.contains(points)

    def test_reproducible(self, square_region):
        a = uniform_placement(10, square_region, np.random.default_rng(1))
        b = uniform_placement(10, square_region, np.random.default_rng(1))
        assert np.allclose(a, b)

    def test_one_dimensional(self, line_region, rng):
        points = uniform_placement(20, line_region, rng)
        assert points.shape == (20, 1)


class TestGridPlacement:
    def test_1d_equal_spacing(self, line_region):
        points = grid_placement(10, line_region)
        coordinates = np.sort(points[:, 0])
        gaps = np.diff(coordinates)
        assert np.allclose(gaps, gaps[0])
        assert gaps[0] == pytest.approx(line_region.side / 10)

    def test_2d_lattice_count(self, square_region):
        points = grid_placement(9, square_region)
        assert points.shape == (9, 2)
        assert square_region.contains(points)

    def test_non_square_count(self, square_region):
        points = grid_placement(7, square_region)
        assert points.shape == (7, 2)

    def test_zero_count(self, square_region):
        assert grid_placement(0, square_region).shape == (0, 2)

    def test_negative_raises(self, square_region):
        with pytest.raises(ConfigurationError):
            grid_placement(-1, square_region)


class TestCornerClusters:
    def test_split_between_corners(self, square_region, rng):
        points = corner_clusters_placement(10, square_region, rng, spread=0.01)
        near_origin = np.sum(np.all(points < square_region.side / 2, axis=1))
        near_far = np.sum(np.all(points > square_region.side / 2, axis=1))
        assert near_origin == 5
        assert near_far == 5

    def test_odd_count(self, square_region, rng):
        points = corner_clusters_placement(7, square_region, rng)
        assert points.shape == (7, 2)

    def test_invalid_spread(self, square_region, rng):
        with pytest.raises(ConfigurationError):
            corner_clusters_placement(10, square_region, rng, spread=-0.5)

    def test_zero_count(self, square_region, rng):
        assert corner_clusters_placement(0, square_region, rng).shape == (0, 2)

    def test_requires_large_range(self, square_region, rng):
        from repro.connectivity.critical_range import critical_range

        points = corner_clusters_placement(20, square_region, rng, spread=0.01)
        # Connecting the two corner clusters needs a range close to the diagonal.
        assert critical_range(points) > 0.8 * square_region.side
