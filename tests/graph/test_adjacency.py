"""Tests for repro.graph.adjacency."""

import pytest

from repro.graph.adjacency import CommunicationGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = CommunicationGraph(0)
        assert graph.node_count == 0
        assert graph.edge_count == 0

    def test_with_edges(self):
        graph = CommunicationGraph(4, edges=[(0, 1), (2, 1)])
        assert graph.edge_count == 2
        assert graph.edges() == [(0, 1), (1, 2)]

    def test_negative_node_count(self):
        with pytest.raises(ValueError):
            CommunicationGraph(-1)


class TestEdges:
    def test_self_loop_ignored(self):
        graph = CommunicationGraph(3)
        graph.add_edge(1, 1)
        assert graph.edge_count == 0

    def test_duplicate_edges_collapsed(self):
        graph = CommunicationGraph(3, edges=[(0, 1), (1, 0), (0, 1)])
        assert graph.edge_count == 1

    def test_out_of_range_node(self):
        graph = CommunicationGraph(3)
        with pytest.raises(IndexError):
            graph.add_edge(0, 3)

    def test_negative_node(self):
        graph = CommunicationGraph(3)
        with pytest.raises(IndexError):
            graph.add_edge(-1, 0)
        assert graph.edge_count == 0

    def test_edges_sorted(self):
        graph = CommunicationGraph(4, edges=[(3, 2), (1, 0)])
        assert graph.edges() == [(0, 1), (2, 3)]

    def test_edges_is_a_copy(self):
        graph = CommunicationGraph(3, edges=[(0, 1)])
        graph.edges().append((1, 2))
        assert graph.edges() == [(0, 1)]
