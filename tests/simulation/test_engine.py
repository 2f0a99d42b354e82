"""Tests for repro.simulation.engine, on both lanes of the batched MST
kernel and growth-curve sweep (the ``kernel_lane`` fixture)."""

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
)

pytestmark = pytest.mark.usefixtures("kernel_lane")


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


class TestFixedRangeRecords:
    """The paper's per-step records at a fixed range, read off the columns."""

    def _network(self):
        return NetworkConfig(node_count=12, side=100.0, dimension=2)

    def test_record_count(self, rng):
        columns = simulate_frame_statistics(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=15, rng=rng
        )
        assert len(columns) == 15
        assert columns.node_count == 12
        assert columns.connected_at(30.0).shape == (15,)
        assert columns.largest_component_sizes_at(30.0).shape == (15,)

    def test_stationary_records_identical(self, rng):
        columns = simulate_frame_statistics(
            self._network(), MobilitySpec.stationary(), steps=5, rng=rng
        )
        states = set(
            zip(
                columns.connected_at(30.0).tolist(),
                columns.largest_component_sizes_at(30.0).tolist(),
            )
        )
        assert len(states) == 1

    def test_huge_range_always_connected(self, rng):
        columns = simulate_frame_statistics(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=10, rng=rng
        )
        assert columns.connected_at(1000.0).all()
        assert columns.largest_component_sizes_at(1000.0).tolist() == [12] * 10

    def test_zero_range_never_connected(self, rng):
        columns = simulate_frame_statistics(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=10, rng=rng
        )
        assert not columns.connected_at(0.0).any()
        assert columns.largest_component_sizes_at(0.0).min() == 1

    def test_zero_steps_yields_empty_records(self, rng):
        columns = simulate_frame_statistics(
            self._network(), MobilitySpec.paper_drunkard(100.0), steps=0, rng=rng
        )
        assert len(columns) == 0
        assert columns.connected_at(30.0).size == 0
        assert columns.largest_component_sizes_at(30.0).size == 0


class TestSimulateFrameStatistics:
    def test_one_stat_per_step(self, rng):
        network = NetworkConfig(node_count=10, side=100.0)
        stats = simulate_frame_statistics(
            network, MobilitySpec.paper_drunkard(100.0), steps=12, rng=rng
        )
        assert len(stats) == 12
        assert all(s.node_count == 10 for s in stats)

    def test_consistent_with_fixed_range_run(self):
        """The vectorized fixed-range queries agree with every frame's own
        step function at that range."""
        network = NetworkConfig(node_count=10, side=100.0)
        mobility = MobilitySpec.paper_drunkard(100.0)
        stats = simulate_frame_statistics(
            network, mobility, 20, np.random.default_rng(55)
        )
        for radius in (0.0, 20.0, 40.0, 200.0):
            assert stats.connected_at(radius).tolist() == [
                s.is_connected_at(radius) for s in stats
            ]
            assert stats.largest_component_sizes_at(radius).tolist() == [
                s.largest_component_size_at(radius) for s in stats
            ]
