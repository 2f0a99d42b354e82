"""Tests for repro.simulation.metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import SearchError
from repro.simulation.engine import frame_statistics, frame_statistics_columns
from repro.simulation.metrics import (
    average_largest_fraction_at,
    range_for_connectivity_fraction,
    range_for_no_connectivity,
    ranges_for_component_fractions,
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
            threshold = ranges_for_component_fractions(frames, (target,))[0]
            assert average_largest_fraction_at(frames, threshold) >= target
            assert average_largest_fraction_at(frames, threshold * 0.999) < target

    def test_ordering_matches_paper(self, frames):
        rl50, rl75, rl90 = ranges_for_component_fractions(frames, (0.5, 0.75, 0.9))
        r100 = range_for_connectivity_fraction(frames, 1.0)
        assert rl50 <= rl75 <= rl90 <= r100

    def test_zero_node_frames_need_no_range(self):
        empty = frame_statistics_columns(np.empty((3, 0, 2)))
        assert ranges_for_component_fractions(empty, (0.5,))[0] == 0.0

    def test_tiny_target_is_zero(self, frames):
        # A single node (fraction 1/15) is already achieved at range 0.
        assert ranges_for_component_fractions(frames, (1 / 15,))[0] == 0.0

    def test_invalid_target(self, frames):
        with pytest.raises(SearchError):
            ranges_for_component_fractions(frames, (0.0,))
        with pytest.raises(SearchError):
            ranges_for_component_fractions(NO_FRAMES, (0.5,))


def binary_search_reference(frames, target_fraction):
    """The ``rl`` search the one-pass version replaced, as the oracle: a
    binary search over the distinct breakpoint ranges that averages every
    frame at each probe.  Takes valid targets and frames only."""
    if average_largest_fraction_at(frames, 0.0) >= target_fraction:
        return 0.0
    breakpoints = np.unique(frames.curve_ranges)
    if not len(breakpoints):
        return 0.0
    if average_largest_fraction_at(frames, breakpoints[-1]) < target_fraction:
        raise SearchError("never reaches")
    low, high = 0, len(breakpoints) - 1
    while low < high:
        mid = (low + high) // 2
        if average_largest_fraction_at(frames, breakpoints[mid]) >= target_fraction:
            high = mid
        else:
            low = mid + 1
    return float(breakpoints[low])


def columns(node_count, curves):
    """Hand-built columns: one ``[(range, size), ...]`` curve per frame,
    each frame's critical range its last breakpoint's (0 without one)."""
    ranges = [r for curve in curves for r, _ in curve]
    sizes = [size for curve in curves for _, size in curve]
    return FrameStatisticsColumns(
        node_count=node_count,
        critical_ranges=[curve[-1][0] if curve else 0.0 for curve in curves],
        curve_offsets=np.cumsum([0] + [len(curve) for curve in curves]),
        curve_ranges=np.array(ranges, dtype=float),
        curve_sizes=np.array(sizes, dtype=np.int64),
    )


def bits(value):
    return np.float64(value).view(np.uint64)


#: Ranges the curves draw from: 0.0 (coincident nodes) and a few values
#: small enough that frames share them.
SHARED_RANGES = [0.0, 0.25, 1.0, 1.5, 2.0, 3.0, 7.5]


@st.composite
def engine_like_columns(draw):
    """Columns as the engine writes them: each frame's breakpoint ranges
    and sizes strictly ascend, and its curve ends at the node count."""
    node_count = draw(st.integers(min_value=2, max_value=12))
    range_pool = draw(
        st.one_of(
            st.just(SHARED_RANGES),
            st.lists(
                st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
                min_size=node_count, max_size=3 * node_count, unique=True,
            ),
        )
    )
    curves = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        sizes = sorted(
            draw(st.sets(st.integers(min_value=2, max_value=node_count)))
            | {node_count}
        )
        sizes = sizes[-len(range_pool):]
        ranges = sorted(
            draw(
                st.lists(
                    st.sampled_from(range_pool), min_size=len(sizes),
                    max_size=len(sizes), unique=True,
                )
            )
        )
        curves.append(list(zip(ranges, sizes)))
    return columns(node_count, curves)


TARGETS = st.one_of(
    st.sampled_from([0.5, 0.75, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


class TestOnePassComponentSearch:
    @settings(max_examples=300, deadline=None)
    @given(frames=engine_like_columns(), targets=st.lists(TARGETS, min_size=1, max_size=4))
    @example(  # one frame of two nodes
        frames=columns(2, [[(1.5, 2)]]), targets=[0.5, 0.75, 1.0]
    )
    @example(  # every frame starts with coincident nodes
        frames=columns(4, [[(0.0, 2), (1.0, 4)], [(0.0, 3), (2.0, 4)]]),
        targets=[0.5, 0.625, 0.7, 1.0],
    )
    def test_equals_the_binary_search_bit_for_bit(self, frames, targets):
        expected = [binary_search_reference(frames, t) for t in targets]
        observed = ranges_for_component_fractions(frames, targets)
        assert [bits(v) for v in observed] == [bits(v) for v in expected]
        for target, value in zip(targets, expected):
            (alone,) = ranges_for_component_fractions(frames, (target,))
            assert bits(alone) == bits(value)

    def test_a_target_hit_exactly_stops_at_its_range(self):
        # Two frames of four nodes: the average is exactly 0.5 from 1.0 on.
        frames = columns(4, [[(1.0, 2), (3.0, 4)], [(1.0, 2), (2.0, 4)]])
        assert average_largest_fraction_at(frames, 1.0) == 0.5
        assert ranges_for_component_fractions(frames, (0.5,))[0] == 1.0
        assert ranges_for_component_fractions(frames, (0.5 + 1e-12,))[0] == 2.0
        assert binary_search_reference(frames, 0.5) == 1.0

    def test_equal_ranges_across_frames_are_one_step(self):
        frames = columns(3, [[(2.0, 3)], [(2.0, 3)], [(1.0, 2), (2.0, 3)]])
        assert ranges_for_component_fractions(frames, [0.4, 0.5, 1.0]) == [
            1.0, 2.0, 2.0
        ]

    def test_zero_range_early_exit(self):
        # Coincident nodes already give an average of (3 + 3) / 2 / 4 at 0.
        frames = columns(4, [[(0.0, 3), (5.0, 4)], [(0.0, 3), (6.0, 4)]])
        assert ranges_for_component_fractions(frames, [0.75, 0.7, 0.8]) == [
            0.0, 0.0, 5.0
        ]
        single_nodes = columns(1, [[], []])
        assert ranges_for_component_fractions(single_nodes, [1.0]) == [0.0]

    def test_no_breakpoints_need_no_range(self):
        assert ranges_for_component_fractions(columns(0, [[], [], []]), [0.5]) == [0.0]

    @pytest.mark.parametrize("target", [0.0, -0.5, 1.0 + 1e-9, math.nan, math.inf])
    def test_refuses_a_target_outside_the_unit_interval(self, frames, target):
        with pytest.raises(SearchError, match="target_fraction must be in"):
            ranges_for_component_fractions(frames, [0.5, target])
        with pytest.raises(SearchError, match="target_fraction must be in"):
            ranges_for_component_fractions(frames, (target,))

    def test_refuses_zero_frames(self):
        with pytest.raises(SearchError, match="zero frames"):
            ranges_for_component_fractions(NO_FRAMES, [0.5])

    def test_refuses_a_target_no_range_reaches(self):
        # Hand-built curves that stop short of the node count.
        frames = columns(4, [[(1.0, 2)], [(2.0, 3)]])
        with pytest.raises(SearchError, match="largest achievable is 0.625"):
            ranges_for_component_fractions(frames, (0.7,))
        empty_frames_with_breakpoints = columns(0, [[(1.0, 1)]])
        with pytest.raises(SearchError, match="largest achievable is 0.000"):
            ranges_for_component_fractions(empty_frames_with_breakpoints, (0.5,))
