"""Connectivity observations of one placement at one range.

Each observation records whether the point graph is connected and how
large its largest component is.  The simulator reads the same facts off
its spanning-tree columns (``FrameStatisticsColumns.connected_at`` and
``largest_component_sizes_at``); the functions here build the point graph
directly, for the examples and as the tests' per-frame reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.builder import build_communication_graph
from repro.graph.components import summarize_components
from repro.types import Positions


@dataclass(frozen=True)
class ConnectivityObservation:
    """Connectivity facts about one placement at one transmitting range."""

    node_count: int
    transmitting_range: float
    connected: bool
    largest_component_size: int
    component_count: int

    @property
    def largest_component_fraction(self) -> float:
        """Largest component size over ``n`` (0 for an empty network)."""
        if self.node_count == 0:
            return 0.0
        return self.largest_component_size / self.node_count


def observe_placement(
    positions: Positions, transmitting_range: float
) -> ConnectivityObservation:
    """Build the communication graph and record its connectivity facts."""
    graph = build_communication_graph(positions, transmitting_range)
    summary = summarize_components(graph)
    return ConnectivityObservation(
        node_count=graph.node_count,
        transmitting_range=transmitting_range,
        connected=summary.is_connected,
        largest_component_size=summary.largest_size,
        component_count=summary.component_count,
    )


def is_placement_connected(positions: Positions, transmitting_range: float) -> bool:
    """``True`` if the point graph of ``positions`` at range ``r`` is connected."""
    return observe_placement(positions, transmitting_range).connected
