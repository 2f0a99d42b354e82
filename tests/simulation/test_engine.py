"""Tests for repro.simulation.engine."""

import numpy as np
import pytest

from repro.connectivity.critical_range import critical_range
from repro.connectivity.metrics import observe_placement
from repro.simulation.config import MobilitySpec, NetworkConfig
from repro.simulation.engine import (
    FrameStatistics,
    component_growth_curve,
    frame_statistics,
    frame_statistics_columns,
    simulate_frame_statistics,
    simulate_iteration,
)


class TestComponentGrowthCurve:
    def test_final_breakpoint_is_critical_range(self, small_placement):
        curve = component_growth_curve(small_placement)
        assert curve[-1][0] == pytest.approx(critical_range(small_placement))
        assert curve[-1][1] == small_placement.shape[0]

    def test_sizes_strictly_increase(self, small_placement):
        curve = component_growth_curve(small_placement)
        sizes = [size for _, size in curve]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)

    def test_ranges_non_decreasing(self, small_placement):
        curve = component_growth_curve(small_placement)
        ranges = [r for r, _ in curve]
        assert ranges == sorted(ranges)

    def test_trivial_inputs(self):
        assert component_growth_curve(np.empty((0, 2))) == ()
        assert component_growth_curve(np.array([[1.0, 1.0]])) == ()


class TestFrameStatistics:
    def test_matches_direct_observation(self, small_placement):
        stats = frame_statistics(small_placement)
        for radius in (0.0, 5.0, 15.0, 30.0, 200.0):
            observation = observe_placement(small_placement, radius)
            assert stats.largest_component_size_at(radius) == observation.largest_component_size
            assert stats.is_connected_at(radius) == observation.connected

    def test_critical_range_consistency(self, small_placement):
        stats = frame_statistics(small_placement)
        assert stats.critical_range == pytest.approx(critical_range(small_placement))

    def test_single_node(self):
        stats = frame_statistics(np.array([[3.0, 4.0]]))
        assert stats.critical_range == 0.0
        assert stats.largest_component_size_at(0.0) == 1
        assert stats.is_connected_at(0.0)

    def test_empty(self):
        stats = FrameStatistics(critical_range=0.0, component_curve=(), node_count=0)
        assert stats.largest_component_size_at(10.0) == 0

    def test_1d_flat_input(self):
        stats = frame_statistics(np.array([0.0, 1.0, 5.0]))
        assert stats.node_count == 3
        assert stats.critical_range == pytest.approx(4.0)


class TestFrameStatisticsColumns:
    def test_matches_per_frame_reference(self):
        frames = np.random.default_rng(41).random((4, 12, 2)) * 100.0
        columns = frame_statistics_columns(frames)
        for frame, statistics in zip(frames, columns):
            assert statistics == frame_statistics(frame)


class TestSimulateIteration:
    def _network(self):
        return NetworkConfig(node_count=12, side=100.0, dimension=2)

    def test_record_count(self, rng):
        result = simulate_iteration(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=15,
            transmitting_range=30.0, rng=rng,
        )
        assert result.step_count == 15
        assert result.node_count == 12
        assert result.transmitting_range == 30.0

    def test_stationary_records_identical(self, rng):
        result = simulate_iteration(
            self._network(), MobilitySpec.stationary(), steps=5,
            transmitting_range=30.0, rng=rng,
        )
        states = {
            (record.connected, record.largest_component_size)
            for record in result.records
        }
        assert len(states) == 1

    def test_huge_range_always_connected(self, rng):
        result = simulate_iteration(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=10,
            transmitting_range=1000.0, rng=rng,
        )
        assert result.connected_fraction == 1.0

    def test_zero_range_never_connected(self, rng):
        result = simulate_iteration(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=10,
            transmitting_range=0.0, rng=rng,
        )
        assert result.connected_fraction == 0.0
        assert result.minimum_largest_component == 1

    def test_zero_steps_yields_empty_records(self, rng):
        result = simulate_iteration(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=0,
            transmitting_range=30.0, rng=rng,
        )
        assert result.step_count == 0
        assert result.connected_fraction == 0.0


class TestSimulateFrameStatistics:
    def test_one_stat_per_step(self, rng):
        network = NetworkConfig(node_count=10, side=100.0)
        stats = simulate_frame_statistics(
            network, MobilitySpec.paper_drunkard(100.0), steps=12, rng=rng
        )
        assert len(stats) == 12
        assert all(s.node_count == 10 for s in stats)

    def test_consistent_with_fixed_range_run(self):
        """Thresholds derived from frame statistics must agree with direct
        fixed-range simulation on the same random stream."""
        network = NetworkConfig(node_count=10, side=100.0)
        mobility = MobilitySpec.paper_drunkard(100.0)
        steps = 20
        stats = simulate_frame_statistics(
            network, mobility, steps, np.random.default_rng(55)
        )
        radius = 40.0
        fraction_from_stats = sum(
            1 for s in stats if s.is_connected_at(radius)
        ) / len(stats)
        direct = simulate_iteration(
            network, mobility, steps, radius, np.random.default_rng(55)
        )
        assert fraction_from_stats == pytest.approx(direct.connected_fraction)
        sizes_from_stats = [s.largest_component_size_at(radius) for s in stats]
        assert sizes_from_stats == [r.largest_component_size for r in direct.records]
