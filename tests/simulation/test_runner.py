"""Tests for repro.simulation.runner."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation import engine
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.metrics import range_for_connectivity_fraction
from repro.simulation.results import pool_frame_statistics
from repro.simulation.runner import (
    collect_frame_statistics,
    run_fixed_range,
    stationary_critical_range,
)


def small_config(transmitting_range=None, steps=8, iterations=3, seed=17):
    return SimulationConfig(
        network=NetworkConfig(node_count=10, side=100.0, dimension=2),
        mobility=MobilitySpec.paper_drunkard(100.0),
        steps=steps,
        iterations=iterations,
        seed=seed,
        transmitting_range=transmitting_range,
    )


class TestRunFixedRange:
    def test_requires_range(self):
        with pytest.raises(ConfigurationError):
            run_fixed_range(small_config(transmitting_range=None))

    def test_iteration_and_step_counts(self):
        result = run_fixed_range(small_config(transmitting_range=30.0))
        assert result.iteration_count == 3
        assert all(it.step_count == 8 for it in result.iterations)
        assert result.node_count == 10

    def test_reproducible_with_seed(self):
        a = run_fixed_range(small_config(transmitting_range=30.0, seed=5))
        b = run_fixed_range(small_config(transmitting_range=30.0, seed=5))
        assert a.per_iteration_connected_fraction == b.per_iteration_connected_fraction

    def test_different_seeds_differ(self):
        a = collect_frame_statistics(small_config(seed=5, iterations=2))
        b = collect_frame_statistics(small_config(seed=6, iterations=2))
        ranges_a = [frame.critical_range for frames in a for frame in frames]
        ranges_b = [frame.critical_range for frames in b for frame in frames]
        assert ranges_a != ranges_b

    def test_connectivity_monotone_in_range(self):
        low = run_fixed_range(small_config(transmitting_range=15.0))
        high = run_fixed_range(small_config(transmitting_range=60.0))
        assert high.connected_fraction >= low.connected_fraction


class TestCollectFrameStatistics:
    def test_shape(self):
        statistics = collect_frame_statistics(small_config())
        assert len(statistics) == 3
        assert all(len(frames) == 8 for frames in statistics)

    def test_consistent_with_fixed_range(self):
        """The same seed must yield identical conclusions in both modes."""
        config = small_config(transmitting_range=35.0)
        fixed = run_fixed_range(config)
        statistics = collect_frame_statistics(config)
        from repro.simulation.metrics import connectivity_fraction_at

        pooled = [frame for frames in statistics for frame in frames]
        assert connectivity_fraction_at(pooled, 35.0) == pytest.approx(
            fixed.connected_fraction
        )


class TestStationaryCriticalRange:
    def test_placements_connect_at_returned_range(self):
        value = stationary_critical_range(
            node_count=20, side=200.0, dimension=2, iterations=40, seed=3, confidence=1.0
        )
        # Confidence 1.0 means every sampled placement connects at this range.
        from repro.connectivity.metrics import is_placement_connected
        from repro.geometry.region import Region
        from repro.placement.strategies import uniform_placement
        from repro.stats.rng import RandomSource

        source = RandomSource(3)
        region = Region.square(200.0)
        for index in range(40):
            placement = uniform_placement(20, region, source.child(index))
            assert is_placement_connected(placement, value)

    def test_confidence_monotone(self):
        low = stationary_critical_range(20, 200.0, iterations=60, seed=4, confidence=0.5)
        high = stationary_critical_range(20, 200.0, iterations=60, seed=4, confidence=0.99)
        assert high >= low

    def test_more_nodes_smaller_range(self):
        sparse = stationary_critical_range(10, 500.0, iterations=40, seed=5)
        dense = stationary_critical_range(80, 500.0, iterations=40, seed=5)
        assert dense < sparse

    def test_1d_supported(self):
        value = stationary_critical_range(30, 1000.0, dimension=1, iterations=40, seed=6)
        assert 0.0 < value < 1000.0

    def test_invalid_confidence(self):
        with pytest.raises(ConfigurationError):
            stationary_critical_range(10, 100.0, iterations=10, confidence=0.0)

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            stationary_critical_range(10, 100.0, iterations=0)


class TestStationaryBatching:
    """The placements reach the kernel in batches of at most
    ``_TRAJECTORY_BATCH_ELEMENTS // n`` frames, with unchanged results."""

    @staticmethod
    def kernel_batches(monkeypatch, nodes, cap):
        """Cap the batches at ``cap`` frames; returns each call's size."""
        monkeypatch.setattr(engine, "_TRAJECTORY_BATCH_ELEMENTS", nodes * cap)
        batches = []
        kernel = engine.minimum_spanning_edges_batch

        def spy(frames):
            batches.append(len(frames))
            return kernel(frames)

        monkeypatch.setattr(engine, "minimum_spanning_edges_batch", spy)
        return batches

    @pytest.mark.parametrize(
        "nodes, placements, cap",
        [(16, 30, 2048), (16, 30, 7), (128, 600, 256), (40, 9, 4)],
        ids=["one-batch", "five-batches", "three-batches", "short-last-batch"],
    )
    def test_one_kernel_call_per_batch(self, monkeypatch, nodes, placements, cap):
        batches = self.kernel_batches(monkeypatch, nodes, cap)
        stationary_critical_range(nodes, 4.0 * nodes**2, iterations=placements, seed=9)
        assert len(batches) == math.ceil(placements / cap)
        assert sum(batches) == placements
        assert max(batches) <= cap

    @pytest.mark.parametrize(
        "nodes, placements, dimension, confidence, cap",
        [
            (16, 30, 2, 0.99, 7),
            (20, 41, 1, 0.5, 8),
            (10, 25, 3, 1.0, 4),
            (128, 300, 2, 0.99, 100),
            (12, 5, 2, 0.9, 64),
        ],
    )
    def test_bit_identical_to_pooled_single_step_iterations(
        self, monkeypatch, nodes, placements, dimension, confidence, cap
    ):
        side = 4.0 * nodes**2
        config = SimulationConfig(
            network=NetworkConfig(node_count=nodes, side=side, dimension=dimension),
            mobility=MobilitySpec.stationary(),
            steps=1,
            iterations=placements,
            seed=21,
        )
        expected = range_for_connectivity_fraction(
            pool_frame_statistics(collect_frame_statistics(config)), confidence
        )
        batches = self.kernel_batches(monkeypatch, nodes, cap)
        value = stationary_critical_range(
            nodes, side, dimension=dimension, iterations=placements, seed=21,
            confidence=confidence,
        )
        assert len(batches) == math.ceil(placements / cap)
        assert value.hex() == expected.hex()
