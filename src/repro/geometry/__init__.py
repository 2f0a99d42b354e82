"""Geometric substrate: deployment regions, distances and spatial indices.

The paper places ``n`` nodes inside the ``d``-dimensional cube ``[0, l]^d``.
This package models that region (:class:`~repro.geometry.region.Region`),
provides the distance computations used to decide which nodes can hear each
other, and offers a uniform-grid neighbour index
(:class:`~repro.geometry.spatial_index.GridIndex`) used by the graph builder.
"""

from repro.geometry.distance import (
    pairwise_distances,
    squared_distance_matrix,
    toroidal_distance,
    toroidal_distance_matrix,
)
from repro.geometry.region import Region
from repro.geometry.spatial_index import GridIndex

__all__ = [
    "GridIndex",
    "Region",
    "pairwise_distances",
    "squared_distance_matrix",
    "toroidal_distance",
    "toroidal_distance_matrix",
]
