"""Property-based tests for the graph substrate (hypothesis)."""

import networkx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import squared_distance
from repro.graph.adjacency import CommunicationGraph
from repro.graph.builder import build_communication_graph, neighbor_pairs
from repro.graph.components import (
    component_sizes,
    connected_components,
    is_connected,
    summarize_components,
)
from repro.graph.union_find import UnionFind


@st.composite
def placements(draw, max_nodes=40, side=100.0, dimension=2):
    """Random placements as (n, d) float arrays."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=side, allow_nan=False),
            min_size=n * dimension,
            max_size=n * dimension,
        )
    )
    return np.asarray(values, dtype=float).reshape(n, dimension)


@st.composite
def edge_lists(draw, max_nodes=30):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edge_count = draw(st.integers(min_value=0, max_value=min(60, n * (n - 1) // 2)))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    return n, edges


class TestBuilderProperties:
    @given(
        placements(),
        st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=150.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_a_double_loop(self, points, radius):
        n = points.shape[0]
        assert neighbor_pairs(points, radius) == [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if squared_distance(points[u], points[v]) <= radius * radius
        ]

    @given(placements(max_nodes=25), st.floats(min_value=0.0, max_value=80.0),
           st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=40, deadline=None)
    def test_edges_monotone_in_range(self, points, r1, r2):
        small, large = sorted((r1, r2))
        assert set(neighbor_pairs(points, small)) <= set(neighbor_pairs(points, large))

    @given(placements(max_nodes=25), st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=40, deadline=None)
    def test_edges_respect_distance(self, points, radius):
        graph = build_communication_graph(points, radius)
        for u, v in graph.edges():
            assert np.linalg.norm(points[u] - points[v]) <= radius + 1e-9


class TestComponentProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_union_find_matches_networkx(self, n_and_edges):
        n, edges = n_and_edges
        graph = CommunicationGraph(n, edges=(e for e in edges if e[0] != e[1]))
        reference = networkx.Graph(graph.edges())
        reference.add_nodes_from(range(n))
        assert sorted(map(tuple, connected_components(graph))) == sorted(
            tuple(sorted(c)) for c in networkx.connected_components(reference)
        )

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_component_sizes_partition_nodes(self, n_and_edges):
        n, edges = n_and_edges
        graph = CommunicationGraph(n, edges=(e for e in edges if e[0] != e[1]))
        sizes = component_sizes(graph)
        assert sum(sizes) == n
        assert summarize_components(graph).largest_size == (max(sizes) if sizes else 0)
        assert is_connected(graph) == (len(sizes) <= 1)

    @given(st.integers(min_value=1, max_value=50), st.data())
    @settings(max_examples=40, deadline=None)
    def test_union_find_component_count_invariant(self, n, data):
        operations = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=80,
            )
        )
        structure = UnionFind(n)
        merges = 0
        for a, b in operations:
            if structure.union(a, b):
                merges += 1
        assert structure.component_count == n - merges
        assert sum(len(group) for group in structure.groups()) == n
