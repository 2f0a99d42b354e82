"""Tests for repro.simulation.metrics."""

import numpy as np
import pytest

from repro.exceptions import SearchError
from repro.simulation.engine import frame_statistics, frame_statistics_columns
from repro.simulation.metrics import (
    average_largest_fraction_at,
    range_for_component_fraction,
    range_for_connectivity_fraction,
    range_for_no_connectivity,
)
from repro.simulation.results import FrameStatisticsColumns

NO_FRAMES = FrameStatisticsColumns.concatenate([])


@pytest.fixture
def frames(rng):
    """Frame statistics of 30 random placements of 15 nodes, as the engine
    reduces them: one batched call, checked against the per-frame
    references."""
    placements = [rng.uniform(0, 100, size=(15, 2)) for _ in range(30)]
    columns = frame_statistics_columns(np.stack(placements))
    assert columns == FrameStatisticsColumns.from_frames(
        frame_statistics(p) for p in placements
    )
    return columns


def connected_fraction(frames, radius):
    return float(frames.connected_at(radius).mean())


def minimum_fraction(frames, radius):
    return float(frames.largest_component_sizes_at(radius).min()) / frames.node_count


class TestPointwiseMetrics:
    def test_connectivity_fraction_monotone(self, frames):
        fractions = [connected_fraction(frames, r) for r in (0, 20, 40, 80, 200)]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[-1] == 1.0

    def test_average_fraction_monotone(self, frames):
        values = [average_largest_fraction_at(frames, r) for r in (0, 10, 30, 60, 200)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_zero_range_values(self, frames):
        assert average_largest_fraction_at(frames, 0.0) == pytest.approx(1 / 15)
        assert minimum_fraction(frames, 0.0) == pytest.approx(1 / 15)

    def test_minimum_below_average(self, frames):
        for r in (10.0, 30.0, 60.0):
            assert minimum_fraction(frames, r) <= average_largest_fraction_at(
                frames, r
            ) + 1e-12

    def test_largest_component_sizes(self, frames):
        sizes = frames.largest_component_sizes_at(50.0)
        assert len(sizes) == len(frames)
        assert all(1 <= s <= 15 for s in sizes)

    def test_empty_frames(self):
        assert NO_FRAMES.connected_at(1.0).size == 0
        assert NO_FRAMES.largest_component_sizes_at(1.0).size == 0
        assert average_largest_fraction_at(NO_FRAMES, 1.0) == 0.0

    def test_zero_node_frames_average_zero(self):
        """Frames of zero nodes carry no component information."""
        empty = frame_statistics_columns(np.empty((3, 0, 2)))
        assert empty.node_count == 0
        for r in (0.0, 30.0, 200.0):
            assert average_largest_fraction_at(empty, r) == 0.0


class TestConnectivityThresholds:
    def test_r100_is_max_critical_range(self, frames):
        assert range_for_connectivity_fraction(frames, 1.0) == max(
            f.critical_range for f in frames
        )

    def test_r0_is_min_critical_range(self, frames):
        assert range_for_no_connectivity(frames) == min(f.critical_range for f in frames)

    def test_threshold_achieves_fraction(self, frames):
        for fraction in (1.0, 0.9, 0.5, 0.1):
            threshold = range_for_connectivity_fraction(frames, fraction)
            assert connected_fraction(frames, threshold) >= fraction
            # Just below the threshold the fraction must drop below the target.
            assert connected_fraction(frames, threshold - 1e-9) < fraction

    def test_monotone_in_fraction(self, frames):
        thresholds = [
            range_for_connectivity_fraction(frames, f) for f in (0.1, 0.5, 0.9, 1.0)
        ]
        assert thresholds == sorted(thresholds)

    def test_invalid_fraction(self, frames):
        with pytest.raises(SearchError):
            range_for_connectivity_fraction(frames, 0.0)
        with pytest.raises(SearchError):
            range_for_connectivity_fraction(frames, 1.5)

    def test_empty_frames_raise(self):
        with pytest.raises(SearchError):
            range_for_connectivity_fraction(NO_FRAMES, 0.5)
        with pytest.raises(SearchError):
            range_for_no_connectivity(NO_FRAMES)


class TestComponentFractionThresholds:
    def test_threshold_achieves_target(self, frames):
        for target in (0.9, 0.75, 0.5):
            threshold = range_for_component_fraction(frames, target)
            assert average_largest_fraction_at(frames, threshold) >= target
            assert average_largest_fraction_at(frames, threshold * 0.999) < target

    def test_ordering_matches_paper(self, frames):
        rl50 = range_for_component_fraction(frames, 0.5)
        rl75 = range_for_component_fraction(frames, 0.75)
        rl90 = range_for_component_fraction(frames, 0.9)
        r100 = range_for_connectivity_fraction(frames, 1.0)
        assert rl50 <= rl75 <= rl90 <= r100

    def test_zero_node_frames_need_no_range(self):
        empty = frame_statistics_columns(np.empty((3, 0, 2)))
        assert range_for_component_fraction(empty, 0.5) == 0.0

    def test_tiny_target_is_zero(self, frames):
        # A single node (fraction 1/15) is already achieved at range 0.
        assert range_for_component_fraction(frames, 1 / 15) == 0.0

    def test_invalid_target(self, frames):
        with pytest.raises(SearchError):
            range_for_component_fraction(frames, 0.0)
        with pytest.raises(SearchError):
            range_for_component_fraction(NO_FRAMES, 0.5)
