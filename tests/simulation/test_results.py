"""Tests for repro.simulation.results."""

import pickle

import numpy as np
import pytest

from repro.simulation.results import FrameStatistics, FrameStatisticsColumns
from repro.simulation.search import average_component_fraction_at_range


class TestFixedRangeQueries:
    """The paper's fixed-range outputs (Section 4.1) as queries on columns.

    Two iterations of two 10-node frames each; at range 5.0 only the
    first frame is connected, and the largest components hold 10, 5, 8
    and 4 nodes.
    """

    RADIUS = 5.0

    def _iterations(self):
        first = FrameStatisticsColumns.from_frames([
            FrameStatistics(4.0, ((1.0, 3), (2.0, 6), (4.0, 10)), 10),
            FrameStatistics(8.0, ((3.0, 5), (8.0, 10)), 10),
        ])
        second = FrameStatisticsColumns.from_frames([
            FrameStatistics(6.0, ((5.0, 8), (6.0, 10)), 10),
            FrameStatistics(9.0, ((2.0, 4), (9.0, 10)), 10),
        ])
        return [first, second]

    def _pooled(self):
        return FrameStatisticsColumns.concatenate(self._iterations())

    def test_connected_fraction_pools_steps(self):
        assert self._pooled().connected_at(self.RADIUS).mean() == pytest.approx(0.25)

    def test_per_iteration_fractions(self):
        assert [
            float(frames.connected_at(self.RADIUS).mean())
            for frames in self._iterations()
        ] == [0.5, 0.0]

    def test_average_largest_when_disconnected(self):
        pooled = self._pooled()
        sizes = pooled.largest_component_sizes_at(self.RADIUS)
        disconnected = ~pooled.connected_at(self.RADIUS)
        assert sizes[disconnected].mean() == pytest.approx((5 + 8 + 4) / 3)

    def test_average_largest_fraction(self):
        expected = (10 + 5 + 8 + 4) / 4 / 10
        assert average_component_fraction_at_range(
            self._iterations(), self.RADIUS
        ) == pytest.approx(expected)

    def test_minimum_largest_component(self):
        assert self._pooled().largest_component_sizes_at(self.RADIUS).min() == 4
        assert self._pooled().largest_component_sizes_at(0.5).min() == 1

    def test_always_and_never_connected(self):
        pooled = self._pooled()
        assert pooled.connected_at(9.0).all()
        assert not pooled.connected_at(3.9).any()
        assert pooled.largest_component_sizes_at(9.0).tolist() == [10] * 4

    def test_empty_run(self):
        empty = FrameStatisticsColumns.concatenate([])
        assert empty.connected_at(self.RADIUS).size == 0
        assert empty.largest_component_sizes_at(self.RADIUS).size == 0
        assert average_component_fraction_at_range([], self.RADIUS) == 0.0


class TestFrameStatisticsColumns:
    def _frames(self):
        return [
            FrameStatistics(3.0, ((1.0, 2), (3.0, 4)), 4),
            FrameStatistics(2.0, ((2.0, 4),), 4),
            FrameStatistics(5.0, ((0.5, 2), (1.0, 3), (5.0, 4)), 4),
        ]

    def test_round_trip_and_views(self):
        columns = FrameStatisticsColumns.from_frames(self._frames())
        assert len(columns) == 3
        assert list(columns) == self._frames()
        assert columns[1] == self._frames()[1]
        assert columns[-1] == self._frames()[-1]
        assert columns == self._frames()
        assert columns[0:2] == self._frames()[0:2]

    def test_vectorized_sizes_match_per_frame(self):
        columns = FrameStatisticsColumns.from_frames(self._frames())
        for radius in (0.0, 0.5, 0.75, 1.0, 2.0, 3.0, 4.9, 5.0, 9.0):
            expected = [
                frame.largest_component_size_at(radius) for frame in self._frames()
            ]
            assert columns.largest_component_sizes_at(radius).tolist() == expected
            assert columns.connected_at(radius).tolist() == [
                frame.is_connected_at(radius) for frame in self._frames()
            ]

    def test_concatenate_matches_pooled_list(self):
        first = FrameStatisticsColumns.from_frames(self._frames())
        second = FrameStatisticsColumns.from_frames(self._frames()[::-1])
        pooled = FrameStatisticsColumns.concatenate([first, second])
        assert list(pooled) == self._frames() + self._frames()[::-1]

    def test_concatenate_rejects_mixed_node_counts(self):
        first = FrameStatisticsColumns.from_frames(self._frames())
        second = FrameStatisticsColumns.from_frames(
            [FrameStatistics(1.0, ((1.0, 2),), 2)]
        )
        with pytest.raises(ValueError):
            FrameStatisticsColumns.concatenate([first, second])

    def test_trivial_node_counts(self):
        empty = FrameStatisticsColumns.from_frames([])
        assert len(empty) == 0
        singles = FrameStatisticsColumns.from_frames(
            [FrameStatistics(0.0, (), 1), FrameStatistics(0.0, (), 1)]
        )
        assert singles.largest_component_sizes_at(3.0).tolist() == [1, 1]

    def test_pickles_small(self):
        # The float64 breakpoint ranges are irreducible (they must stay
        # bit-exact), so the curve payload shrinks by the per-object
        # overhead only.
        frames = [
            FrameStatistics(
                float(n), tuple((float(j), j + 2) for j in range(8)), 10
            )
            for n in range(5_000)
        ]
        columns = FrameStatisticsColumns.from_frames(frames)
        assert int(len(pickle.dumps(columns)) * 1.3) < len(pickle.dumps(frames))
        assert pickle.loads(pickle.dumps(columns)) == columns

    def test_pickle_preserves_negative_sizes(self):
        # Hand-built containers may carry sentinels; the compact transport
        # must not wrap them through an unsigned cast.
        columns = FrameStatisticsColumns(
            node_count=4,
            critical_ranges=np.array([1.0]),
            curve_offsets=np.array([0, 2]),
            curve_ranges=np.array([0.5, 1.0]),
            curve_sizes=np.array([-1, 4], dtype=np.int64),
        )
        assert pickle.loads(pickle.dumps(columns)) == columns

    def test_from_frames_rejects_mixed_node_counts(self):
        with pytest.raises(ValueError, match="constant node count"):
            FrameStatisticsColumns.from_frames(
                self._frames() + [FrameStatistics(1.0, ((1.0, 2),), 2)]
            )

    def test_offsets_must_bound_every_frame(self):
        with pytest.raises(ValueError, match="curve_offsets"):
            FrameStatisticsColumns(
                node_count=4,
                critical_ranges=np.array([1.0, 2.0]),
                curve_offsets=np.array([0, 1]),
                curve_ranges=np.array([1.0]),
                curve_sizes=np.array([4]),
            )

    @pytest.mark.parametrize("index", [3, -4])
    def test_index_past_either_end_raises(self, index):
        with pytest.raises(IndexError):
            FrameStatisticsColumns.from_frames(self._frames())[index]

    def test_an_empty_container_pickles(self):
        empty = FrameStatisticsColumns.from_frames([])
        assert pickle.loads(pickle.dumps(empty)) == empty

    def test_is_unequal_to_what_is_not_a_sequence(self):
        assert FrameStatisticsColumns.from_frames(self._frames()) != 3.0
