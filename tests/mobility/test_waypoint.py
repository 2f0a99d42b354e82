"""Tests for repro.mobility.waypoint."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.mobility.waypoint import RandomWaypointModel
from repro.simulation.config import MobilitySpec


class TestConstruction:
    def test_invalid_speeds(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(vmin=0.0, vmax=1.0)
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(vmin=2.0, vmax=1.0)

    @pytest.mark.parametrize(
        "speeds, message",
        [
            (dict(vmin=float("nan"), vmax=1.0), "vmin must be positive and finite"),
            (dict(vmin=0.1, vmax=float("inf")), "vmax must be finite"),
            (dict(vmin=0.1, vmax=float("nan")), "vmax must be finite"),
        ],
        ids=["vmin-nan", "vmax-inf", "vmax-nan"],
    )
    def test_non_finite_speeds_are_refused(self, speeds, message):
        with pytest.raises(ConfigurationError, match=message):
            RandomWaypointModel(**speeds)

    def test_tiny_positive_speeds_are_accepted(self):
        model = RandomWaypointModel(vmin=5e-324, vmax=5e-324)
        assert model.vmin == model.vmax == 5e-324

    def test_invalid_pause(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(vmin=0.1, vmax=1.0, tpause=-1)

    def test_paper_defaults(self):
        model = MobilitySpec.paper_waypoint(4096.0).create()
        assert isinstance(model, RandomWaypointModel)
        assert model.vmin == pytest.approx(0.1)
        assert model.vmax == pytest.approx(40.96)
        assert model.tpause == 2000
        assert model.pstationary == 0.0

    def test_describe_mentions_parameters(self):
        model = RandomWaypointModel(vmin=0.5, vmax=2.0, tpause=10)
        description = model.describe()
        assert "0.5" in description and "2.0" in description


class TestMovement:
    def test_positions_stay_in_region(self, square_region):
        rng = np.random.default_rng(1)
        model = RandomWaypointModel(vmin=1.0, vmax=20.0, tpause=0)
        model.initialize(square_region.sample_uniform(25, rng), square_region, rng)
        for _ in range(100):
            positions = model.step(rng)
            assert square_region.contains(positions)

    def test_step_length_bounded_by_vmax(self, square_region):
        rng = np.random.default_rng(2)
        vmax = 3.0
        model = RandomWaypointModel(vmin=0.5, vmax=vmax, tpause=0)
        previous = model.initialize(
            square_region.sample_uniform(20, rng), square_region, rng
        )
        for _ in range(50):
            current = model.step(rng)
            jumps = np.linalg.norm(current - previous, axis=1)
            assert np.all(jumps <= vmax + 1e-9)
            previous = current

    def test_nodes_eventually_move(self, square_region):
        rng = np.random.default_rng(3)
        model = RandomWaypointModel(vmin=1.0, vmax=5.0, tpause=0)
        initial = model.initialize(
            square_region.sample_uniform(10, rng), square_region, rng
        )
        final = model.run(30, rng)
        displacement = np.linalg.norm(final - initial, axis=1)
        assert np.all(displacement > 0.0)

    def test_pause_freezes_node_after_arrival(self):
        region = Region.square(10.0)
        rng = np.random.default_rng(4)
        # Very high speed: a node arrives at its destination in one step and
        # then must pause for tpause steps.
        model = RandomWaypointModel(vmin=100.0, vmax=100.0, tpause=5)
        model.initialize(region.sample_uniform(5, rng), region, rng)
        after_arrival = model.step(rng)
        for _ in range(5):
            paused = model.step(rng)
            assert np.allclose(paused, after_arrival)
        moved = model.step(rng)
        assert not np.allclose(moved, after_arrival)

    def test_zero_pause_keeps_moving(self, square_region):
        rng = np.random.default_rng(5)
        model = RandomWaypointModel(vmin=50.0, vmax=50.0, tpause=0)
        previous = model.initialize(
            square_region.sample_uniform(8, rng), square_region, rng
        )
        stalls = 0
        for _ in range(20):
            current = model.step(rng)
            if np.allclose(current, previous):
                stalls += 1
            previous = current
        assert stalls == 0

    def test_reproducible_with_same_seed(self, square_region):
        def run(seed):
            rng = np.random.default_rng(seed)
            model = RandomWaypointModel(vmin=0.5, vmax=5.0, tpause=2)
            model.initialize(square_region.sample_uniform(10, rng), square_region, rng)
            return model.run(25, rng)

        assert np.allclose(run(7), run(7))
        assert not np.allclose(run(7), run(8))

    def test_empty_network(self, square_region, rng):
        model = RandomWaypointModel(vmin=0.5, vmax=5.0)
        model.initialize(np.empty((0, 2)), square_region, rng)
        assert model.step(rng).shape == (0, 2)
