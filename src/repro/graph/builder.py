"""Construction of communication graphs from placements.

One vectorised all-pairs pass compares every squared distance with
``r**2``.  The simulator never builds a point graph: its answers come from
the minimum spanning tree columns of :mod:`repro.simulation.engine`.  This
builder answers one placement at one range (the examples and
:func:`repro.connectivity.metrics.observe_placement`), and it is the plain
reference the spanning-tree kernels are tested against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry.distance import squared_distance_matrix
from repro.graph.adjacency import CommunicationGraph
from repro.types import Edge, Positions, as_positions


def neighbor_pairs(positions: Positions, transmitting_range: float) -> List[Edge]:
    """All unordered pairs of nodes within ``transmitting_range``.

    Args:
        positions: ``(n, d)`` placement.
        transmitting_range: common range ``r``; must be non-negative.  A
            pair at distance exactly ``r`` is adjacent.

    Returns:
        Sorted list of ``(u, v)`` pairs with ``u < v``.
    """
    if transmitting_range < 0:
        raise ConfigurationError(
            f"transmitting range must be non-negative, got {transmitting_range}"
        )
    points = as_positions(positions)
    if points.shape[0] < 2:
        return []
    squared = squared_distance_matrix(points)
    limit = transmitting_range * transmitting_range
    rows, cols = np.nonzero(np.triu(squared <= limit, k=1))
    return [(int(u), int(v)) for u, v in zip(rows, cols)]


def build_communication_graph(
    positions: Positions, transmitting_range: float
) -> CommunicationGraph:
    """Build the point graph induced by ``positions`` and ``transmitting_range``."""
    points = as_positions(positions)
    return CommunicationGraph(
        points.shape[0], edges=neighbor_pairs(points, transmitting_range)
    )
