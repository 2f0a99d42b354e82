"""Distance computations.

The communication graph has an edge between two nodes whenever their
Euclidean distance is at most the transmitting range ``r``.  The routines
here compute those distances efficiently for whole placements.  A toroidal
variant is provided because wrap-around boundaries are a common modelling
alternative (it removes border effects); it is used by some of the extended
experiments and by tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.types import Positions, as_positions


def squared_distance_matrix(positions: Positions) -> np.ndarray:
    """All-pairs squared Euclidean distances as an ``(n, n)`` matrix.

    Working with squared distances avoids ``sqrt`` in the hot path; callers
    compare against ``r**2``.

    The value of entry ``(i, j)`` is defined as the coordinate-wise
    accumulation ``sum_k (a_k - b_k)^2`` in ascending ``k`` — the same
    rounding :func:`squared_distance` produces for a single pair.  One
    canonical formula matters: thresholds such as the critical range are
    exact to the last ulp (:func:`repro.connectivity.critical_range.
    range_reaching`), so an algebraically equivalent rearrangement (e.g.
    the BLAS-friendly ``||a||^2 + ||b||^2 - 2 a.b``) that rounds one ulp
    differently can make a graph builder disagree with the MST bottleneck
    at exactly the critical range.
    """
    points = as_positions(positions)
    count, dimension = points.shape
    if dimension == 0:
        return np.zeros((count, count), dtype=np.float64)
    # One (n, n) pass per coordinate — same ascending-k rounding as
    # _accumulate_squared without materialising an (n, n, d) temporary on
    # the per-frame hot path.
    column = points[:, 0]
    delta = column[:, None] - column[None, :]
    squared = delta * delta
    for axis in range(1, dimension):
        column = points[:, axis]
        delta = column[:, None] - column[None, :]
        squared += delta * delta
    return squared


def _accumulate_squared(deltas: np.ndarray) -> np.ndarray:
    """``sum_k deltas[..., k]^2`` accumulated in ascending coordinate order.

    Plain ufunc passes (one multiply and one add per coordinate) so every
    caller — matrix, batch or single pair — rounds identically.
    """
    dimension = deltas.shape[-1]
    if dimension == 0:
        return np.zeros(deltas.shape[:-1])
    squared = deltas[..., 0] * deltas[..., 0]
    for axis in range(1, dimension):
        squared += deltas[..., axis] * deltas[..., axis]
    return squared


def squared_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance of one pair, matching
    :func:`squared_distance_matrix` bit for bit."""
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    return float(_accumulate_squared(pa - pb))


def pairwise_distances(positions: Positions) -> np.ndarray:
    """All-pairs Euclidean distances as an ``(n, n)`` matrix."""
    return np.sqrt(squared_distance_matrix(positions))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two individual points."""
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError(
            f"points must have the same shape, got {pa.shape} and {pb.shape}"
        )
    return float(math.sqrt(float(np.sum((pa - pb) ** 2))))


def toroidal_distance(
    a: Sequence[float], b: Sequence[float], side: float
) -> float:
    """Distance between two points on the torus of side ``side``.

    Each coordinate difference is reduced modulo ``side`` and the shorter of
    the two ways around is used.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError(
            f"points must have the same shape, got {pa.shape} and {pb.shape}"
        )
    delta = np.abs(pa - pb)
    delta = np.minimum(delta, side - delta)
    return float(math.sqrt(float(np.sum(delta**2))))


def toroidal_squared_distance_matrix(positions: Positions, side: float) -> np.ndarray:
    """All-pairs squared toroidal distances on a torus of side ``side``.

    The squared form is what range comparisons use (adjacency is decided by
    ``distance**2 <= r**2``), so exact threshold extraction — e.g.
    :func:`repro.connectivity.critical_range.critical_range_toroidal` —
    works on this matrix and only rounds to a radius at the very end.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    points = as_positions(positions)
    deltas = np.abs(points[:, None, :] - points[None, :, :])
    deltas = np.minimum(deltas, side - deltas)
    return np.sum(deltas**2, axis=-1)


def toroidal_distance_matrix(positions: Positions, side: float) -> np.ndarray:
    """All-pairs toroidal distances for a placement on a torus of side ``side``."""
    return np.sqrt(toroidal_squared_distance_matrix(positions, side))


def nearest_neighbor_distances(positions: Positions) -> np.ndarray:
    """Distance from each node to its nearest other node.

    For a single node the result is an array containing ``inf`` (there is
    no neighbour to measure against).
    """
    points = as_positions(positions)
    n = points.shape[0]
    if n == 0:
        return np.empty(0, dtype=float)
    if n == 1:
        return np.array([math.inf])
    distances = pairwise_distances(points)
    np.fill_diagonal(distances, math.inf)
    return distances.min(axis=1)
