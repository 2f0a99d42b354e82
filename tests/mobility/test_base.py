"""Tests for repro.mobility.base and the stationary model."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.geometry.region import Region
from repro.mobility import model_by_name
from repro.mobility.base import MobilityModel
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel


class TestInitialization:
    def test_requires_initialize_before_step(self):
        model = StationaryModel()
        with pytest.raises(SimulationError):
            model.step()
        with pytest.raises(SimulationError):
            _ = model.state

    def test_initialize_returns_copy(self, square_region, rng):
        model = StationaryModel()
        initial = square_region.sample_uniform(10, rng)
        returned = model.initialize(initial, square_region, rng)
        returned[:] = -1.0
        assert square_region.contains(model.state.positions)

    def test_rejects_positions_outside_region(self, square_region, rng):
        model = StationaryModel()
        bad = np.array([[150.0, 10.0]])
        with pytest.raises(ConfigurationError):
            model.initialize(bad, square_region, rng)

    def test_rejects_dimension_mismatch(self, square_region, rng):
        model = StationaryModel()
        with pytest.raises(ConfigurationError):
            model.initialize(np.zeros((3, 3)), square_region, rng)

    def test_is_initialized_flag(self, square_region, rng):
        model = StationaryModel()
        assert not model.is_initialized
        model.initialize(square_region.sample_uniform(5, rng), square_region, rng)
        assert model.is_initialized

    def test_invalid_pstationary(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(pstationary=1.5)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(pstationary=-0.1)


class TestStationaryModel:
    def test_positions_never_change(self, square_region, rng):
        model = StationaryModel()
        initial = model.initialize(square_region.sample_uniform(12, rng), square_region, rng)
        for _ in range(5):
            positions = model.step(rng)
            assert np.allclose(positions, initial)

    def test_step_index_advances(self, square_region, rng):
        model = StationaryModel()
        model.initialize(square_region.sample_uniform(4, rng), square_region, rng)
        model.step(rng)
        model.step(rng)
        assert model.state.step_index == 2

    def test_run_helper(self, square_region, rng):
        model = StationaryModel()
        initial = model.initialize(square_region.sample_uniform(4, rng), square_region, rng)
        final = model.run(10, rng)
        assert np.allclose(final, initial)

    def test_run_negative_steps_raises(self, square_region, rng):
        model = StationaryModel()
        model.initialize(square_region.sample_uniform(4, rng), square_region, rng)
        with pytest.raises(ConfigurationError):
            model.run(-1, rng)

    def test_describe(self):
        assert "StationaryModel" in StationaryModel().describe()


class TestPstationaryMechanism:
    def test_all_stationary_when_probability_one(self, square_region, rng):
        model = RandomWaypointModel(vmin=1.0, vmax=5.0, pstationary=1.0)
        initial = model.initialize(
            square_region.sample_uniform(15, rng), square_region, rng
        )
        for _ in range(10):
            positions = model.step(rng)
        assert np.allclose(positions, initial)

    def test_none_stationary_when_probability_zero(self, square_region, rng):
        model = RandomWaypointModel(vmin=1.0, vmax=5.0, pstationary=0.0)
        model.initialize(square_region.sample_uniform(15, rng), square_region, rng)
        assert not model.state.stationary_mask.any()

    def test_stationary_nodes_pinned(self, square_region):
        rng = np.random.default_rng(5)
        model = RandomWaypointModel(vmin=1.0, vmax=5.0, pstationary=0.5)
        initial = model.initialize(
            square_region.sample_uniform(40, rng), square_region, rng
        )
        mask = model.state.stationary_mask.copy()
        assert mask.any() and (~mask).any()
        for _ in range(20):
            positions = model.step(rng)
        assert np.allclose(positions[mask], initial[mask])
        # At least one mobile node must have moved after 20 steps.
        assert not np.allclose(positions[~mask], initial[~mask])


class TestModelByName:
    def test_the_papers_models(self):
        assert isinstance(model_by_name("stationary"), StationaryModel)
        assert isinstance(model_by_name("waypoint", vmin=0.5), RandomWaypointModel)
        assert isinstance(model_by_name("drunkard", ppause=0.3), DrunkardModel)

    def test_parameters_forwarded(self):
        model = model_by_name("drunkard", step_radius=9.0, ppause=0.4)
        assert model.step_radius == 9.0
        assert model.ppause == 0.4

    @pytest.mark.parametrize("name", ["random-direction", "gauss-markov", "rpgm"])
    def test_no_other_model(self, name):
        with pytest.raises(
            ConfigurationError,
            match=r"expected one of \['drunkard', 'stationary', 'waypoint'\]",
        ):
            model_by_name(name)


def test_every_model_implements_its_own_trajectory():
    """No per-step fallback: a model without a vectorized trajectory
    cannot be instantiated."""
    assert MobilityModel.__abstractmethods__ == {"_advance", "_prepare", "trajectory"}

    class StepOnly(MobilityModel):
        def _prepare(self, rng):
            return None

        def _advance(self, rng):
            return self.state.positions.copy()

    with pytest.raises(TypeError, match="trajectory"):
        StepOnly()
