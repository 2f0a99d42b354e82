"""Structural properties of communication graphs.

The paper's lower bound analysis (Section 3) is built on the distinction
between "graphs containing an isolated node" and "disconnected graphs";
this module provides isolation checks as well as the richer properties
(degrees, articulation points, a simple k-connectivity test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.adjacency import CommunicationGraph
from repro.graph.components import is_connected


def isolated_nodes(graph: CommunicationGraph) -> List[int]:
    """Indices of nodes with no neighbours."""
    return [node for node in graph.nodes() if graph.degree(node) == 0]


def has_isolated_node(graph: CommunicationGraph) -> bool:
    """``True`` if at least one node has no neighbours.

    The existence of an isolated node implies the graph is disconnected
    (for ``n >= 2``), which is the weaker disconnection criterion used by
    the earlier bounds the paper improves on.
    """
    if graph.node_count < 2:
        return False
    return any(graph.degree(node) == 0 for node in graph.nodes())


def degree_sequence(graph: CommunicationGraph) -> List[int]:
    """Sorted (descending) list of node degrees."""
    return sorted(graph.degrees(), reverse=True)


def minimum_degree(graph: CommunicationGraph) -> int:
    """Smallest node degree (0 for the empty graph)."""
    degrees = graph.degrees()
    return min(degrees) if degrees else 0


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of the degree distribution of a graph."""

    minimum: int
    maximum: int
    mean: float

    @classmethod
    def empty(cls) -> "DegreeStatistics":
        return cls(minimum=0, maximum=0, mean=0.0)


def degree_statistics(graph: CommunicationGraph) -> DegreeStatistics:
    """Min/max/mean degree of ``graph``."""
    degrees = graph.degrees()
    if not degrees:
        return DegreeStatistics.empty()
    return DegreeStatistics(
        minimum=min(degrees),
        maximum=max(degrees),
        mean=sum(degrees) / len(degrees),
    )


def articulation_points(graph: CommunicationGraph) -> List[int]:
    """Nodes whose removal increases the number of connected components.

    Uses the iterative Hopcroft–Tarjan low-link algorithm so that large
    graphs do not hit the recursion limit.
    """
    n = graph.node_count
    adjacency = graph.adjacency_lists()
    visited = [False] * n
    discovery = [0] * n
    low = [0] * n
    parent: List[int] = [-1] * n
    points = set()
    timer = 0

    for root in range(n):
        if visited[root]:
            continue
        # Iterative DFS, stack of (node, iterator over neighbours).
        stack = [(root, iter(adjacency[root]))]
        visited[root] = True
        discovery[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    discovery[neighbor] = low[neighbor] = timer
                    timer += 1
                    parent[neighbor] = node
                    if node == root:
                        root_children += 1
                    stack.append((neighbor, iter(adjacency[neighbor])))
                    advanced = True
                    break
                if neighbor != parent[node]:
                    low[node] = min(low[node], discovery[neighbor])
            if not advanced:
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if above != root and low[node] >= discovery[above]:
                        points.add(above)
        if root_children > 1:
            points.add(root)
    return sorted(points)


def is_k_connected(graph: CommunicationGraph, k: int) -> bool:
    """``True`` if the graph stays connected after removing any ``k-1`` nodes.

    For ``k == 1`` this is ordinary connectivity and for ``k == 2`` the
    articulation-point test is used.  For larger ``k`` the check removes
    every subset of ``k-1`` nodes, which is exponential in ``k`` and meant
    for the small graphs exercised in tests and examples, not for
    production-sized networks.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if graph.node_count <= k:
        # A complete graph on k nodes is (k-1)-connected at most; follow the
        # usual convention that a graph on <= k nodes cannot be k-connected
        # unless it is the complete graph on k+1 nodes.
        return graph.node_count > k
    if not is_connected(graph):
        return False
    if k == 1:
        return True
    if minimum_degree(graph) < k:
        return False
    if k == 2:
        return not articulation_points(graph)
    from itertools import combinations

    nodes = list(graph.nodes())
    for removed in combinations(nodes, k - 1):
        survivors = [node for node in nodes if node not in removed]
        if not survivors:
            continue
        if not is_connected(graph.subgraph(survivors)):
            return False
    return True
