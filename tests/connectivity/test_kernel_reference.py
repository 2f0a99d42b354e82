"""The NumPy kernels against references that share none of their code.

The distance matrix, the single-frame and batched Prim kernels and the
batched frame-statistics reduction call NumPy directly.  Each is checked
here against an independent computation:

* every squared-distance entry against the single-pair formula
  :func:`~repro.geometry.distance.squared_distance`;
* Prim's sorted edge lengths against networkx's minimum spanning tree of
  the same matrix (every minimum spanning tree of a graph has the same
  multiset of edge weights), and its edges for spanning the placement;
* the critical ranges against a Kruskal sweep over every pair;
* the batched reduction against the single-frame one, and its readings
  at a range against the communication graph built at that range.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.connectivity.critical_range import (
    critical_range,
    critical_range_for_component_fraction,
    minimum_spanning_edges_batch,
    minimum_spanning_edges_from_squared,
    range_reaching,
)
from repro.connectivity.metrics import observe_placement
from repro.exceptions import AnalysisError, SimulationError
from repro.geometry.distance import (
    squared_distance,
    squared_distance_matrix,
    toroidal_squared_distance_matrix,
)
from repro.graph.union_find import UnionFind
from repro.simulation.engine import frame_statistics, frame_statistics_columns

DIMENSIONS = [1, 2, 3, 4]


def random_points(n, dimension, seed, side=100.0):
    return np.random.default_rng(seed).random((n, dimension)) * side


def random_frames(batch, n, dimension, seed, side=100.0):
    return np.random.default_rng(seed).random((batch, n, dimension)) * side


def networkx_tree_lengths(squared):
    """Sorted edge weights of networkx's minimum spanning tree of ``squared``."""
    n = squared.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, weight=float(squared[u, v]))
    tree = nx.minimum_spanning_tree(graph, algorithm="kruskal")
    return sorted(weight for _, _, weight in tree.edges(data="weight"))


def spans(n, us, vs):
    """``True`` if the ``n - 1`` edges ``(us, vs)`` join all ``n`` nodes."""
    structure = UnionFind(n)
    merged = [structure.union(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    return len(merged) == n - 1 and all(merged)


def kruskal_range(points, target):
    """Range at which a sweep over every pair first grows a part of ``target`` nodes."""
    n = points.shape[0]
    pairs = sorted(
        (squared_distance(points[u], points[v]), u, v)
        for u in range(n)
        for v in range(u + 1, n)
    )
    structure = UnionFind(n)
    for squared, u, v in pairs:
        structure.union(u, v)
        if structure.set_size(u) >= target:
            return range_reaching(squared)
    raise AssertionError("the sweep never reached the target")


class TestSquaredDistanceMatrix:
    @pytest.mark.parametrize("n", [2, 17])
    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_entries_equal_the_single_pair_formula(self, dimension, n):
        points = random_points(n, dimension, seed=dimension * n)
        matrix = squared_distance_matrix(points)
        assert matrix.shape == (n, n)
        assert matrix.dtype == np.float64
        for u in range(n):
            for v in range(n):
                assert matrix[u, v] == squared_distance(points[u], points[v])
        assert np.array_equal(matrix, matrix.T)
        assert not np.diagonal(matrix).any()

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_integer_grids_give_exact_integer_squares(self, dimension):
        # Small integers are exact in float64, so every entry must be the
        # exact integer sum of squares, wherever the grid sits.
        grid = np.random.default_rng(dimension).integers(0, 50, size=(12, dimension))
        expected = ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=-1)
        for shift in (0, 1000):
            matrix = squared_distance_matrix((grid + shift).astype(float))
            assert np.array_equal(matrix, expected.astype(float))

    def test_zero_dimensional_points_are_all_at_distance_zero(self):
        assert np.array_equal(squared_distance_matrix(np.empty((4, 0))), np.zeros((4, 4)))


class TestPrimAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_sorted_lengths_equal_the_networkx_tree(self, dimension, seed):
        points = random_points(23, dimension, seed)
        squared = squared_distance_matrix(points)
        us, vs, lengths = minimum_spanning_edges_from_squared(squared)
        assert lengths.tolist() == networkx_tree_lengths(squared)
        # Each length is its own edge's matrix entry, and the edges span.
        assert np.array_equal(lengths, squared[us, vs])
        assert spans(23, us, vs)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_toroidal_matrix_tree_equals_the_networkx_tree(self, dimension):
        points = random_points(19, dimension, seed=7 + dimension)
        squared = toroidal_squared_distance_matrix(points, 100.0)
        us, vs, lengths = minimum_spanning_edges_from_squared(squared)
        assert lengths.tolist() == networkx_tree_lengths(squared)
        assert spans(19, us, vs)

    @pytest.mark.parametrize("grid_side", [2, 3])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_tied_and_zero_lengths_on_integer_grids(self, dimension, grid_side):
        # Coincident nodes and many equal lengths: whichever way Prim breaks
        # the ties, the sorted lengths are those of every minimum tree.
        points = (
            np.random.default_rng(grid_side)
            .integers(0, grid_side, size=(15, dimension))
            .astype(float)
        )
        squared = squared_distance_matrix(points)
        us, vs, lengths = minimum_spanning_edges_from_squared(squared)
        assert lengths.tolist() == networkx_tree_lengths(squared)
        assert spans(15, us, vs)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes_have_no_edges(self, n):
        us, vs, lengths = minimum_spanning_edges_from_squared(np.zeros((n, n)))
        assert us.size == vs.size == lengths.size == 0
        assert us.dtype == vs.dtype == np.intp
        assert lengths.dtype == np.float64


class TestPrimBatchShapes:
    @pytest.mark.parametrize(
        "shape", [(0, 5, 2), (3, 0, 2), (3, 1, 2)], ids=["no-frames", "no-nodes", "one-node"]
    )
    def test_degenerate_batches_have_empty_rows(self, shape):
        us, vs, lengths = minimum_spanning_edges_batch(np.zeros(shape))
        for column in (us, vs, lengths):
            assert column.shape == (shape[0], 0)
        assert lengths.dtype == np.float64

    def test_zero_dimensional_frames_have_zero_length_spanning_edges(self):
        us, vs, lengths = minimum_spanning_edges_batch(np.empty((2, 5, 0)))
        assert lengths.shape == (2, 4)
        assert not lengths.any()
        for row_us, row_vs in zip(us, vs):
            assert spans(5, row_us, row_vs)

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (1, 5, 2, 1)])
    def test_rejects_anything_but_a_batch_of_frames(self, shape):
        with pytest.raises(AnalysisError, match="batch of frames"):
            minimum_spanning_edges_batch(np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_other_dtypes_are_reduced_in_float64(self, dtype):
        frames = np.random.default_rng(3).integers(0, 40, size=(4, 9, 2)).astype(dtype)
        observed = minimum_spanning_edges_batch(frames)
        expected = minimum_spanning_edges_batch(frames.astype(np.float64))
        for observed_column, expected_column in zip(observed, expected):
            assert np.array_equal(observed_column, expected_column)
        assert observed[2].dtype == np.float64

    def test_input_frames_are_left_unchanged(self):
        frames = random_frames(3, 11, 2, seed=19)
        before = frames.copy()
        minimum_spanning_edges_batch(frames)
        assert np.array_equal(frames, before)


class TestCriticalRangesAgainstKruskal:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_critical_range_equals_the_pairwise_sweep(self, dimension, seed):
        points = random_points(20, dimension, seed)
        value = critical_range(points)
        assert value == kruskal_range(points, 20)
        assert observe_placement(points, value).connected
        assert not observe_placement(points, math.nextafter(value, 0.0)).connected

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, 1.0])
    def test_component_fraction_range_equals_the_pairwise_sweep(self, fraction):
        points = random_points(20, 2, seed=11)
        target = math.ceil(fraction * 20)
        value = critical_range_for_component_fraction(points, fraction)
        assert value == kruskal_range(points, target)
        assert observe_placement(points, value).largest_component_size >= target
        below = observe_placement(points, math.nextafter(value, 0.0))
        assert below.largest_component_size < target


class TestFrameStatisticsColumnsAgainstSingleFrames:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_each_frame_equals_the_single_frame_reduction(self, dimension, batch):
        frames = random_frames(batch, 12, dimension, seed=batch)
        columns = frame_statistics_columns(frames)
        assert len(columns) == batch
        assert columns.node_count == 12
        for frame, statistics in zip(frames, columns):
            assert statistics == frame_statistics(frame)

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_critical_ranges_equal_the_single_frame_critical_range(self, dimension):
        frames = random_frames(6, 15, dimension, seed=31)
        columns = frame_statistics_columns(frames)
        assert columns.critical_ranges.tolist() == [critical_range(f) for f in frames]

    @pytest.mark.parametrize("quantile", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_readings_at_a_critical_range_equal_the_graph(self, quantile):
        frames = random_frames(10, 12, 2, seed=43)
        columns = frame_statistics_columns(frames)
        # Exactly one frame's critical range: the edge case of every test.
        radius = float(np.quantile(columns.critical_ranges, quantile, method="lower"))
        connected = columns.connected_at(radius)
        sizes = columns.largest_component_sizes_at(radius)
        for frame, frame_connected, size in zip(frames, connected, sizes):
            observation = observe_placement(frame, radius)
            assert frame_connected == observation.connected
            assert size == observation.largest_component_size

    def test_one_ulp_below_its_critical_range_a_frame_is_disconnected(self):
        frames = random_frames(6, 10, 2, seed=47)
        columns = frame_statistics_columns(frames)
        for index, value in enumerate(columns.critical_ranges.tolist()):
            below = math.nextafter(value, 0.0)
            assert columns.connected_at(value)[index]
            assert not columns.connected_at(below)[index]
            observation = observe_placement(frames[index], below)
            assert not observation.connected
            assert (
                columns.largest_component_sizes_at(below)[index]
                == observation.largest_component_size
            )

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes(self, n):
        columns = frame_statistics_columns(np.zeros((3, n, 2)))
        assert len(columns) == 3
        assert columns.node_count == n
        assert not columns.critical_ranges.any()
        assert columns.connected_at(0.0).all()
        assert columns.largest_component_sizes_at(1.0).tolist() == [n] * 3

    @pytest.mark.parametrize("shape", [(12, 2), (2, 12, 2, 1)])
    def test_rejects_anything_but_a_batch_of_frames(self, shape):
        with pytest.raises(SimulationError, match="batch of frames"):
            frame_statistics_columns(np.zeros(shape))
