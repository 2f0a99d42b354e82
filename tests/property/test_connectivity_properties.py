"""Property-based tests for connectivity invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.critical_range import critical_range, longest_gap_1d
from repro.connectivity.metrics import is_placement_connected, observe_placement
from repro.simulation.engine import frame_statistics, frame_statistics_columns
from repro.simulation.metrics import ranges_for_component_fractions


@st.composite
def placements_2d(draw, min_nodes=2, max_nodes=25, side=100.0):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=side, allow_nan=False),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return np.asarray(values, dtype=float).reshape(n, 2)


@st.composite
def placements_1d(draw, min_nodes=2, max_nodes=40, side=1000.0):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=side, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(values, dtype=float).reshape(n, 1)


def component_fraction_range(points, fraction):
    """Smallest range at which one placement's largest component holds
    ``fraction`` of its nodes: the one-frame case of the engine's search."""
    frames = frame_statistics_columns(points[None])
    return ranges_for_component_fractions(frames, (fraction,))[0]


class TestCriticalRangeProperties:
    @given(placements_2d())
    @settings(max_examples=50, deadline=None)
    def test_critical_range_is_a_threshold(self, points):
        r_star = critical_range(points)
        assert is_placement_connected(points, r_star)
        if r_star > 1e-9:
            assert not is_placement_connected(points, r_star * (1 - 1e-9) - 1e-12)

    @given(placements_2d())
    @settings(max_examples=50, deadline=None)
    def test_critical_range_bounded_by_diameter(self, points):
        diameter = float(
            np.max(np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1))
        )
        assert 0.0 <= critical_range(points) <= diameter + 1e-9

    @given(placements_1d())
    @settings(max_examples=50, deadline=None)
    def test_1d_critical_range_is_longest_gap(self, points):
        # Equal up to floating point noise (the two routines compute the
        # same quantity via sqrt-of-squares vs direct differences).
        import pytest as _pytest

        assert critical_range(points) == _pytest.approx(
            longest_gap_1d(points), rel=1e-9, abs=1e-12
        )

    @given(placements_2d(), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_partial_range_below_full_range(self, points, fraction):
        partial = component_fraction_range(points, fraction)
        assert partial <= critical_range(points) + 1e-9

    @given(placements_2d(), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_partial_range_achieves_fraction(self, points, fraction):
        radius = component_fraction_range(points, fraction)
        assert (
            observe_placement(points, radius).largest_component_fraction
            >= fraction - 1e-12
        )


class TestFrameStatisticsProperties:
    @given(placements_2d(), st.floats(min_value=0.0, max_value=150.0))
    @settings(max_examples=50, deadline=None)
    def test_frame_statistics_match_direct_graph(self, points, radius):
        stats = frame_statistics(points)
        observation = observe_placement(points, radius)
        assert stats.largest_component_size_at(radius) == observation.largest_component_size
        assert stats.is_connected_at(radius) == observation.connected

    @given(placements_2d())
    @settings(max_examples=50, deadline=None)
    def test_component_curve_monotone(self, points):
        stats = frame_statistics(points)
        sizes = [size for _, size in stats.component_curve]
        radii = [radius for radius, _ in stats.component_curve]
        assert sizes == sorted(sizes)
        assert radii == sorted(radii)
        if stats.component_curve:
            assert stats.component_curve[-1][1] == points.shape[0]
