"""The :class:`CommunicationGraph` structure.

A communication graph is the point graph induced by a placement and a common
transmitting range: nodes are indexed ``0 .. n-1``, and an undirected edge
connects two nodes whose Euclidean distance is at most ``r``.  The class
holds the node count and the edge set, which is all the component
reference of :mod:`repro.graph.components` reads.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.types import Edge


class CommunicationGraph:
    """Undirected graph over nodes ``0 .. n-1``.

    Args:
        node_count: number of nodes ``n``.
        edges: iterable of ``(u, v)`` pairs; self loops are ignored and
            duplicates are collapsed.
    """

    def __init__(self, node_count: int, edges: Iterable[Edge] = ()) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be non-negative, got {node_count}")
        self._node_count = node_count
        self._edge_set: Set[Edge] = set()
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``(u, v)``; self loops are ignored."""
        for node in (u, v):
            if not 0 <= node < self._node_count:
                raise IndexError(
                    f"node {node} out of range for a graph with "
                    f"{self._node_count} nodes"
                )
        if u != v:
            self._edge_set.add((u, v) if u < v else (v, u))

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return self._node_count

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._edge_set)

    def edges(self) -> List[Edge]:
        """Sorted list of undirected edges as ``(u, v)`` with ``u < v``."""
        return sorted(self._edge_set)
