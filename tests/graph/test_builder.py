"""Tests for repro.graph.builder."""

import networkx
import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geometry.distance import squared_distance
from repro.graph.builder import build_communication_graph, neighbor_pairs


def double_loop_pairs(points: np.ndarray, radius: float):
    """Every pair ``u < v`` with ``|p_u - p_v|**2 <= r**2``, one at a time."""
    n = points.shape[0]
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if squared_distance(points[u], points[v]) <= radius * radius
    ]


def networkx_pairs(points: np.ndarray, radius: float):
    n = points.shape[0]
    positions = {i: tuple(points[i]) for i in range(n)}
    reference = networkx.random_geometric_graph(n, radius, pos=positions)
    return sorted(tuple(sorted(edge)) for edge in reference.edges())


class TestNeighborPairs:
    def test_simple_line(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert neighbor_pairs(points, 1.5) == [(0, 1)]
        assert neighbor_pairs(points, 2.0) == [(0, 1), (1, 2)]
        assert neighbor_pairs(points, 3.0) == [(0, 1), (0, 2), (1, 2)]

    def test_zero_range(self, small_placement):
        assert neighbor_pairs(small_placement, 0.0) == []

    def test_negative_range_raises(self, small_placement):
        with pytest.raises(ConfigurationError):
            neighbor_pairs(small_placement, -1.0)

    def test_single_node(self):
        assert neighbor_pairs(np.array([[1.0, 1.0]]), 10.0) == []

    def test_empty_placement(self):
        assert neighbor_pairs(np.empty((0, 2)), 10.0) == []

    def test_rejects_positions_of_more_than_two_axes(self):
        with pytest.raises(ValueError):
            neighbor_pairs(np.zeros((2, 2, 2)), 1.0)

    def test_boundary_inclusive(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert neighbor_pairs(points, 5.0) == [(0, 1)]
        assert neighbor_pairs(points, 4.999) == []

    def test_matches_networkx_at_250_nodes(self, rng):
        points = rng.uniform(0, 500, size=(250, 2))
        assert neighbor_pairs(points, 40.0) == networkx_pairs(points, 40.0)

    def test_matches_networkx_at_300_nodes_in_1d(self, rng):
        points = rng.uniform(0, 1000, size=(300, 1))
        assert neighbor_pairs(points, 12.0) == networkx_pairs(points, 12.0)


class TestAgainstDoubleLoop:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_random_placements(self, rng, dimension):
        points = rng.uniform(0.0, 60.0, size=(40, dimension))
        for radius in (5.0, 15.0, 40.0):
            assert neighbor_pairs(points, radius) == double_loop_pairs(points, radius)

    def test_lattice_pairs_exactly_at_the_range(self):
        # Unit spacing: every row and column neighbour sits at exactly r.
        points = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
        pairs = neighbor_pairs(points, 1.0)
        assert pairs == double_loop_pairs(points, 1.0)
        assert len(pairs) == 2 * 5 * 4

    def test_coincident_nodes(self):
        points = np.array([[2.0, 2.0], [2.0, 2.0], [7.0, 2.0], [2.0, 2.0]])
        assert neighbor_pairs(points, 0.0) == [(0, 1), (0, 3), (1, 3)]
        assert neighbor_pairs(points, 5.0) == double_loop_pairs(points, 5.0)
        assert len(neighbor_pairs(points, 5.0)) == 6


class TestBuildCommunicationGraph:
    def test_graph_holds_the_neighbor_pairs(self, small_placement):
        graph = build_communication_graph(small_placement, 20.0)
        assert graph.node_count == small_placement.shape[0]
        assert graph.edges() == neighbor_pairs(small_placement, 20.0)

    def test_larger_range_superset_edges(self, small_placement):
        small = set(build_communication_graph(small_placement, 10.0).edges())
        large = set(build_communication_graph(small_placement, 30.0).edges())
        assert small <= large

    def test_full_range_gives_complete_graph(self, small_placement):
        n = small_placement.shape[0]
        graph = build_communication_graph(small_placement, 1e6)
        assert graph.edge_count == n * (n - 1) // 2

    def test_matches_networkx_random_geometric_semantics(self, rng):
        points = rng.uniform(0, 1, size=(40, 2))
        graph = build_communication_graph(points, 0.25)
        assert graph.edges() == networkx_pairs(points, 0.25)
