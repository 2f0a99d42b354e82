"""Distance computations.

The communication graph has an edge between two nodes whenever their
Euclidean distance is at most the transmitting range ``r``.  The routines
here compute squared distances — for a whole placement, or for one pair
with the same rounding — which callers compare against ``r**2``.
"""

from __future__ import annotations

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
