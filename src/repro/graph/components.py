"""Connected components of a communication graph.

The two central statistics of the paper's simulation study are computed
here: whether the graph is connected, and the size of its largest connected
component (reported as a fraction of ``n`` in Figures 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.adjacency import CommunicationGraph
from repro.graph.union_find import UnionFind


@dataclass(frozen=True)
class ComponentSummary:
    """Aggregate view of the component structure of one graph."""

    node_count: int
    component_count: int
    largest_size: int
    sizes: tuple

    @property
    def is_connected(self) -> bool:
        """``True`` when every node is in a single component.

        The empty graph is treated as connected (it has no pair of nodes
        that fail to communicate), matching the convention of the paper's
        simulator.
        """
        return self.component_count <= 1

    @property
    def largest_fraction(self) -> float:
        """Largest component size divided by ``n`` (0 for an empty graph)."""
        if self.node_count == 0:
            return 0.0
        return self.largest_size / self.node_count


def connected_components(graph: CommunicationGraph) -> List[List[int]]:
    """All connected components as lists of node indices (sorted)."""
    structure = UnionFind(graph.node_count)
    for u, v in graph.edges():
        structure.union(u, v)
    return structure.groups()


def component_sizes(graph: CommunicationGraph) -> List[int]:
    """Sizes of all connected components, sorted descending."""
    return sorted((len(c) for c in connected_components(graph)), reverse=True)


def summarize_components(graph: CommunicationGraph) -> ComponentSummary:
    """Compute the :class:`ComponentSummary` of ``graph``."""
    sizes = component_sizes(graph)
    return ComponentSummary(
        node_count=graph.node_count,
        component_count=len(sizes),
        largest_size=sizes[0] if sizes else 0,
        sizes=tuple(sizes),
    )


def is_connected(graph: CommunicationGraph) -> bool:
    """``True`` if the graph has at most one connected component."""
    if graph.node_count <= 1:
        return True
    # Quick reject: a connected graph on n nodes needs at least n-1 edges.
    if graph.edge_count < graph.node_count - 1:
        return False
    structure = UnionFind(graph.node_count)
    for u, v in graph.edges():
        structure.union(u, v)
        if structure.component_count == 1:
            return True
    return structure.component_count == 1
