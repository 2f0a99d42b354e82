"""Tests for repro.simulation.config."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.simulation.config import (
    MobilitySpec,
    NetworkConfig,
    SimulationConfig,
    paper_node_count,
)


class TestNetworkConfig:
    def test_region(self):
        config = NetworkConfig(node_count=10, side=100.0, dimension=2)
        assert config.region.side == 100.0
        assert config.region.dimension == 2

    def test_fields_are_size_and_region(self):
        """Nodes are placed uniformly, as the paper analyses: no knob."""
        assert [field.name for field in dataclasses.fields(NetworkConfig)] == [
            "node_count", "side", "dimension",
        ]
        with pytest.raises(TypeError):
            NetworkConfig(node_count=5, side=10.0, placement="uniform")

    def test_paper_scaling(self):
        config = NetworkConfig.paper_scaling(4096.0)
        assert config.node_count == 64
        assert config.side == 4096.0

    def test_paper_scaling_small_side(self):
        assert NetworkConfig.paper_scaling(256.0).node_count == 16

    @pytest.mark.parametrize("side", [1.0, 3.0, 256.0, 1000.0, 4096.0, 16384.0])
    def test_paper_scaling_is_the_paper_node_count(self, side):
        assert NetworkConfig.paper_scaling(side).node_count == paper_node_count(side)
        assert SimulationConfig.paper_waypoint(
            side, steps=1, iterations=1
        ).network.node_count == paper_node_count(side)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(node_count=0, side=10.0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(node_count=5, side=-1.0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(node_count=5, side=10.0, dimension=0)


class TestMobilitySpec:
    def test_stationary_factory(self):
        model = MobilitySpec.stationary().create()
        assert isinstance(model, StationaryModel)

    def test_paper_waypoint_defaults(self):
        spec = MobilitySpec.paper_waypoint(4096.0)
        model = spec.create()
        assert isinstance(model, RandomWaypointModel)
        assert model.vmax == pytest.approx(40.96)
        assert model.tpause == 2000
        assert model.pstationary == 0.0

    def test_paper_waypoint_overrides(self):
        spec = MobilitySpec.paper_waypoint(1024.0, pstationary=0.4, tpause=100)
        model = spec.create()
        assert model.pstationary == pytest.approx(0.4)
        assert model.tpause == 100

    def test_paper_drunkard_defaults(self):
        model = MobilitySpec.paper_drunkard(4096.0).create()
        assert isinstance(model, DrunkardModel)
        assert model.step_radius == pytest.approx(40.96)
        assert model.ppause == pytest.approx(0.3)
        assert model.pstationary == pytest.approx(0.1)

    def test_create_returns_fresh_instances(self):
        spec = MobilitySpec.paper_drunkard(100.0)
        assert spec.create() is not spec.create()


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig(network=NetworkConfig(node_count=5, side=10.0))
        assert config.steps == 1
        assert config.iterations == 1
        assert config.mobility == MobilitySpec.stationary()
        assert config.seed is None

    def test_fields_describe_the_run_and_fix_no_range(self):
        assert [field.name for field in dataclasses.fields(SimulationConfig)] == [
            "network", "mobility", "steps", "iterations", "seed",
        ]
        with pytest.raises(TypeError):
            SimulationConfig(
                network=NetworkConfig(node_count=5, side=10.0),
                transmitting_range=3.0,
            )

    def test_validation(self):
        network = NetworkConfig(node_count=5, side=10.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(network=network, steps=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(network=network, iterations=0)

    def test_paper_presets(self):
        waypoint = SimulationConfig.paper_waypoint(1024.0, steps=50, iterations=2, seed=1)
        assert waypoint.network.node_count == 32
        assert waypoint.mobility.name == "waypoint"
        drunkard = SimulationConfig.paper_drunkard(1024.0, steps=50, iterations=2, seed=1)
        assert drunkard.mobility.name == "drunkard"
