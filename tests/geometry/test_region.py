"""Tests for repro.geometry.region."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.geometry.region import Region


class TestConstruction:
    def test_square_factory(self):
        region = Region.square(50.0)
        assert region.side == 50.0
        assert region.dimension == 2

    def test_line_factory(self):
        region = Region.line(10.0)
        assert region.dimension == 1

    def test_invalid_side(self):
        with pytest.raises(ConfigurationError):
            Region(side=0.0)
        with pytest.raises(ConfigurationError):
            Region(side=-5.0)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_side_is_refused(self, side):
        with pytest.raises(ConfigurationError, match="side must be positive and finite"):
            Region(side=side)

    @pytest.mark.parametrize("side", [5e-324, 1e-300])
    def test_tiny_positive_side_is_accepted(self, side):
        assert Region(side=side).side == side

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            Region(side=1.0, dimension=0)

    def test_volume(self):
        assert Region(side=4.0, dimension=3).volume == pytest.approx(64.0)


class TestContains:
    def test_inside(self, square_region):
        points = np.array([[0.0, 0.0], [50.0, 99.0]])
        assert square_region.contains(points)

    def test_outside(self, square_region):
        assert not square_region.contains(np.array([[101.0, 5.0]]))
        assert not square_region.contains(np.array([[-1.0, 5.0]]))

    def test_tolerance(self, square_region):
        assert square_region.contains(np.array([[100.0 + 1e-12, 0.0]]))

    def test_dimension_mismatch(self, square_region):
        with pytest.raises(DimensionMismatchError):
            square_region.contains(np.array([[1.0, 2.0, 3.0]]))


class TestSampling:
    def test_sample_shape(self, square_region, rng):
        points = square_region.sample_uniform(25, rng)
        assert points.shape == (25, 2)

    def test_sample_within_region(self, square_region, rng):
        points = square_region.sample_uniform(500, rng)
        assert square_region.contains(points)

    def test_sample_zero(self, square_region, rng):
        assert square_region.sample_uniform(0, rng).shape == (0, 2)

    def test_sample_negative_raises(self, square_region, rng):
        with pytest.raises(ConfigurationError):
            square_region.sample_uniform(-1, rng)

    def test_sample_reproducible(self, square_region):
        a = square_region.sample_uniform(10, np.random.default_rng(1))
        b = square_region.sample_uniform(10, np.random.default_rng(1))
        assert np.allclose(a, b)


class TestBoundaryHandling:
    def test_clamp(self, square_region):
        clamped = square_region.clamp(np.array([[-5.0, 120.0]]))
        assert np.allclose(clamped, [[0.0, 100.0]])

    def test_reflect_small_overshoot(self, square_region):
        reflected = square_region.reflect(np.array([[105.0, -3.0]]))
        assert np.allclose(reflected, [[95.0, 3.0]])

    def test_reflect_large_overshoot_folds(self, square_region):
        reflected = square_region.reflect(np.array([[250.0, 0.0]]))
        assert square_region.contains(reflected)

    def test_reflect_inside_unchanged(self, square_region):
        points = np.array([[10.0, 20.0]])
        assert np.allclose(square_region.reflect(points), points)
