"""Tests for repro.graph.components."""

import networkx
import pytest

from repro.graph.adjacency import CommunicationGraph
from repro.graph.components import (
    component_sizes,
    connected_components,
    is_connected,
    summarize_components,
)


def path_graph(n: int) -> CommunicationGraph:
    return CommunicationGraph(n, edges=[(i, i + 1) for i in range(n - 1)])


class TestConnectedComponents:
    def test_single_component(self):
        graph = path_graph(5)
        components = connected_components(graph)
        assert len(components) == 1
        assert components[0] == [0, 1, 2, 3, 4]

    def test_multiple_components(self):
        graph = CommunicationGraph(6, edges=[(0, 1), (2, 3)])
        sizes = component_sizes(graph)
        assert sizes == [2, 2, 1, 1]

    def test_empty_graph(self):
        graph = CommunicationGraph(0)
        assert connected_components(graph) == []
        assert component_sizes(graph) == []

    def test_matches_networkx(self, small_placement):
        from repro.graph.builder import build_communication_graph

        graph = build_communication_graph(small_placement, 15.0)
        reference = networkx.Graph(graph.edges())
        reference.add_nodes_from(range(graph.node_count))
        union_find_components = sorted(map(tuple, connected_components(graph)))
        assert union_find_components == sorted(
            tuple(sorted(c)) for c in networkx.connected_components(reference)
        )


class TestIsConnected:
    def test_connected_path(self):
        assert is_connected(path_graph(10))

    def test_disconnected(self):
        graph = CommunicationGraph(4, edges=[(0, 1)])
        assert not is_connected(graph)

    def test_single_node_connected(self):
        assert is_connected(CommunicationGraph(1))

    def test_empty_graph_connected(self):
        assert is_connected(CommunicationGraph(0))

    def test_two_isolated_nodes(self):
        assert not is_connected(CommunicationGraph(2))

    def test_edge_count_shortcut(self):
        # Fewer than n-1 edges can never be connected.
        graph = CommunicationGraph(10, edges=[(0, 1), (2, 3)])
        assert not is_connected(graph)


class TestLargestComponent:
    def test_largest_size(self):
        graph = CommunicationGraph(7, edges=[(0, 1), (1, 2), (3, 4)])
        assert summarize_components(graph).largest_size == 3

    def test_fraction(self):
        graph = CommunicationGraph(4, edges=[(0, 1)])
        assert summarize_components(graph).largest_fraction == pytest.approx(0.5)

    def test_fraction_empty_graph(self):
        assert summarize_components(CommunicationGraph(0)).largest_fraction == 0.0

    def test_fraction_connected_is_one(self):
        assert summarize_components(path_graph(6)).largest_fraction == 1.0


class TestSummary:
    def test_summary_fields(self):
        graph = CommunicationGraph(5, edges=[(0, 1), (2, 3)])
        summary = summarize_components(graph)
        assert summary.node_count == 5
        assert summary.component_count == 3
        assert summary.largest_size == 2
        assert summary.sizes == (2, 2, 1)
        assert not summary.is_connected
        assert summary.largest_fraction == pytest.approx(0.4)

    def test_summary_connected(self):
        summary = summarize_components(path_graph(3))
        assert summary.is_connected
        assert summary.largest_fraction == 1.0

    def test_summary_empty(self):
        summary = summarize_components(CommunicationGraph(0))
        assert summary.is_connected
        assert summary.largest_fraction == 0.0
