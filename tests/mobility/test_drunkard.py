"""Tests for repro.mobility.drunkard."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mobility.drunkard import DrunkardModel


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DrunkardModel(step_radius=0.0)
        with pytest.raises(ConfigurationError):
            DrunkardModel(step_radius=1.0, ppause=1.5)
        with pytest.raises(ConfigurationError):
            DrunkardModel(step_radius=1.0, ppause=-0.1)

    @pytest.mark.parametrize(
        "step_radius", [float("nan"), float("inf")], ids=["nan", "inf"]
    )
    def test_non_finite_step_radius_is_refused(self, step_radius):
        with pytest.raises(ConfigurationError, match="step_radius must be positive and"):
            DrunkardModel(step_radius=step_radius)

    def test_tiny_positive_step_radius_is_accepted(self):
        assert DrunkardModel(step_radius=5e-324).step_radius == 5e-324

    def test_describe(self):
        assert "DrunkardModel" in DrunkardModel(step_radius=2.0).describe()


class TestMovement:
    def test_positions_stay_in_region(self, square_region):
        rng = np.random.default_rng(11)
        model = DrunkardModel(step_radius=15.0, ppause=0.0)
        model.initialize(square_region.sample_uniform(30, rng), square_region, rng)
        for _ in range(100):
            assert square_region.contains(model.step(rng))

    def test_step_length_bounded_by_radius(self, square_region):
        rng = np.random.default_rng(12)
        radius = 4.0
        model = DrunkardModel(step_radius=radius, ppause=0.0)
        previous = model.initialize(
            square_region.sample_uniform(20, rng), square_region, rng
        )
        for _ in range(50):
            current = model.step(rng)
            jumps = np.linalg.norm(current - previous, axis=1)
            assert np.all(jumps <= radius + 1e-9)
            previous = current

    def test_ppause_one_means_no_motion(self, square_region):
        rng = np.random.default_rng(13)
        model = DrunkardModel(step_radius=5.0, ppause=1.0)
        initial = model.initialize(
            square_region.sample_uniform(10, rng), square_region, rng
        )
        final = model.run(20, rng)
        assert np.allclose(final, initial)

    def test_ppause_slows_diffusion(self, square_region):
        def total_displacement(ppause: float) -> float:
            rng = np.random.default_rng(99)
            model = DrunkardModel(step_radius=5.0, ppause=ppause)
            initial = model.initialize(
                square_region.sample_uniform(40, rng), square_region, rng
            )
            final = model.run(60, rng)
            return float(np.linalg.norm(final - initial, axis=1).sum())

        assert total_displacement(0.0) > total_displacement(0.8)

    def test_reproducible(self, square_region):
        def run(seed):
            rng = np.random.default_rng(seed)
            model = DrunkardModel(step_radius=3.0, ppause=0.2)
            model.initialize(square_region.sample_uniform(15, rng), square_region, rng)
            return model.run(30, rng)

        assert np.allclose(run(1), run(1))

    def test_node_in_corner_does_not_escape(self):
        from repro.geometry.region import Region

        region = Region.square(10.0)
        rng = np.random.default_rng(14)
        model = DrunkardModel(step_radius=30.0, ppause=0.0)
        corner = np.zeros((5, 2))
        model.initialize(corner, region, rng)
        for _ in range(20):
            assert region.contains(model.step(rng))

    def test_empty_network(self, square_region, rng):
        model = DrunkardModel(step_radius=1.0)
        model.initialize(np.empty((0, 2)), square_region, rng)
        assert model.step(rng).shape == (0, 2)
