"""Geometric substrate: deployment regions and distances.

The paper places ``n`` nodes inside the ``d``-dimensional cube ``[0, l]^d``.
This package models that region (:class:`~repro.geometry.region.Region`)
and provides the distance computations used to decide which nodes can hear
each other.
"""

from repro.geometry.distance import squared_distance_matrix
from repro.geometry.region import Region

__all__ = [
    "Region",
    "squared_distance_matrix",
]
