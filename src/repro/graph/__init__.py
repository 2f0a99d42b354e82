"""Communication-graph substrate.

The paper models a network as a *point graph*: nodes at known positions,
with an undirected edge whenever two nodes are within the common
transmitting range ``r`` of each other.  This package provides

* :class:`~repro.graph.adjacency.CommunicationGraph` — the node count and
  edge set of one point graph,
* :func:`~repro.graph.builder.build_communication_graph` — its brute-force
  construction from a placement, and
* union-find connected components.

The simulator answers every connectivity question from minimum spanning
tree columns instead; this package is the direct reference they are
tested against.
"""

from repro.graph.adjacency import CommunicationGraph
from repro.graph.builder import build_communication_graph, neighbor_pairs
from repro.graph.components import (
    ComponentSummary,
    connected_components,
    component_sizes,
    is_connected,
)
from repro.graph.union_find import UnionFind

__all__ = [
    "CommunicationGraph",
    "ComponentSummary",
    "UnionFind",
    "build_communication_graph",
    "component_sizes",
    "connected_components",
    "is_connected",
    "neighbor_pairs",
]
