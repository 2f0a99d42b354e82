"""Exact critical transmitting ranges of a fixed placement.

For a *given* placement the MTR problem of Section 2 has an exact answer:
the minimum range making the point graph connected equals the longest edge
of a Euclidean minimum spanning tree of the points (the "bottleneck" edge).
This module computes that value directly — via Prim's algorithm over
squared distances: a dense ``(n, n)`` matrix for one placement, rows
computed on the fly for a batch of mobility frames.

The batch kernel has two bit-identical lanes: the native C one of
:mod:`repro.connectivity.native`, built on first use when a C compiler
is available, and the NumPy one it falls back to.  The single-frame
kernels stay NumPy only; they are the independent references the batch
kernel is tested against.

These exact per-placement values are the building blocks of the
``rstationary`` estimates used as the denominator throughout Figures 2–9.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.connectivity import native
from repro.exceptions import AnalysisError
from repro.geometry.distance import squared_distance_matrix
from repro.types import Positions, as_positions


def range_reaching(squared_distance: float) -> float:
    """The smallest float ``r`` with ``r * r >= squared_distance``.

    The graph builder decides adjacency by comparing squared distances with
    ``r**2``; taking a plain square root of a squared distance can land one
    ulp *below* the true threshold, producing a range that fails to include
    the edge it was derived from.  This helper rounds the square root up by
    at most a couple of ulps so that every range the library reports really
    does connect the pair it came from.
    """
    if squared_distance <= 0.0:
        return 0.0
    radius = math.sqrt(squared_distance)
    while radius * radius < squared_distance:
        radius = math.nextafter(radius, math.inf)
    return radius


def minimum_spanning_edges(
    positions: Positions,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of a Euclidean minimum spanning tree, sorted by length.

    Returns three aligned arrays ``(us, vs, squared_lengths)`` of length
    ``n - 1`` (empty for fewer than two nodes): the endpoints of each MST
    edge and its *squared* Euclidean length, in non-decreasing length order.

    Computed with Prim's algorithm on the dense squared distance matrix;
    every inner scan is a whole-array NumPy operation, so the Python-level
    work is ``O(n)`` loop iterations rather than ``O(n^2)`` per-edge steps.

    The component structure of the communication graph at *any* range can
    be recovered from these edges alone (adding the MST edges of length at
    most ``r`` yields exactly the connected components of the full graph at
    range ``r``), which is what makes the per-frame reductions in
    :mod:`repro.simulation.engine` cheap.
    """
    squared = squared_distance_matrix(positions)
    n = squared.shape[0]
    empty = (
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=np.intp),
        np.empty(0, dtype=float),
    )
    if n <= 1:
        return empty
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = squared[0, :].copy()
    best[0] = math.inf
    parent = np.zeros(n, dtype=np.int64)
    us = np.empty(n - 1, dtype=np.intp)
    vs = np.empty(n - 1, dtype=np.intp)
    lengths = np.empty(n - 1, dtype=float)
    for index in range(n - 1):
        candidate = int(np.argmin(np.where(in_tree, math.inf, best)))
        us[index] = int(parent[candidate])
        vs[index] = candidate
        lengths[index] = float(best[candidate])
        in_tree[candidate] = True
        closer = squared[candidate, :] < best
        parent[closer] = candidate
        np.minimum(best, squared[candidate, :], out=best)
        best[in_tree] = math.inf
    order = np.argsort(lengths, kind="stable")
    return us[order], vs[order], lengths[order]


def minimum_spanning_edges_batch(
    frames: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`minimum_spanning_edges` over ``(B, n, d)`` frames.

    Returns ``(us, vs, squared_lengths)`` as ``(B, n - 1)`` arrays, each row
    sorted by squared length.  Every edge length (and therefore every
    derived threshold) is bit-identical to the single-frame code path.

    Two lanes compute the same arrays.  The native one
    (:mod:`repro.connectivity.native`: Prim and a stable sort in C, 8
    frames per pass on a CPU with AVX-512, else one frame at a time) runs
    whenever its library loads and every coordinate is finite and below
    ``native.COORDINATE_LIMIT``; otherwise
    :func:`_minimum_spanning_edges_batch_numpy` does.
    """
    points = np.asarray(frames, dtype=np.float64)
    if points.ndim != 3:
        raise AnalysisError(
            f"expected a (B, n, d) batch of frames, got shape {points.shape}"
        )
    batch, n, _ = points.shape
    if n <= 1 or batch == 0:
        return (
            np.empty((batch, 0), dtype=np.int64),
            np.empty((batch, 0), dtype=np.int64),
            np.empty((batch, 0), dtype=np.float64),
        )
    library = native.load()
    if library is not None and native.takes(points):
        return library.mst_batch(points)
    return _minimum_spanning_edges_batch_numpy(points)


def _minimum_spanning_edges_batch_numpy(
    points: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The NumPy lane of :func:`minimum_spanning_edges_batch`.

    ``points`` is a float64 ``(B, n, d)`` batch with ``B >= 1`` and
    ``n >= 2``.  One Prim iteration advances *every* frame at once with ``(B, n)``
    array operations, so the per-call overhead of the ``n - 1`` loop
    iterations is amortised across the whole batch.  No distance matrix is
    materialised: each Prim step computes the chosen node's row of every
    frame's squared distances from the coordinates, accumulating
    ``(p_c,k - p_j,k)**2`` over ascending ``k`` exactly as
    :func:`repro.geometry.distance.squared_distance_matrix` does, so the
    working set is a few ``(B, n)`` arrays instead of a ``(B, n, n)``
    stack.  It is the fallback of the native lane and its parity reference.
    """
    batch, n, dimension = points.shape
    batch_index = np.arange(batch)
    # One contiguous (B, n) array per coordinate axis.
    columns = [points[:, :, axis].copy() for axis in range(dimension)]

    def squared_row(node):
        """Row ``node[b]`` of frame ``b``'s squared distances, as ``(B, n)``."""
        if not columns:
            return np.zeros((batch, n), dtype=np.float64)
        row = None
        for column in columns:
            delta = column[batch_index, node][:, None] - column
            delta *= delta
            if row is None:
                row = delta
            else:
                row += delta
        return row

    outside = np.ones((batch, n), dtype=bool)
    outside[:, 0] = False
    best = squared_row(np.zeros(batch, dtype=np.int64))
    best[:, 0] = math.inf
    parent = np.zeros((batch, n), dtype=np.int64)
    us = np.empty((batch, n - 1), dtype=np.int64)
    vs = np.empty((batch, n - 1), dtype=np.int64)
    lengths = np.empty((batch, n - 1), dtype=np.float64)
    for index in range(n - 1):
        candidate = np.argmin(best, axis=1)
        us[:, index] = parent[batch_index, candidate]
        vs[:, index] = candidate
        lengths[:, index] = best[batch_index, candidate]
        outside[batch_index, candidate] = False
        best[batch_index, candidate] = math.inf
        row = squared_row(candidate)
        # Tree nodes hold best = inf, so only the mask keeps them out.
        closer = row < best
        closer &= outside
        np.copyto(parent, candidate[:, None], where=closer)
        np.copyto(best, row, where=closer)
    order = np.argsort(lengths, axis=1, kind="stable")
    return (
        np.take_along_axis(us, order, axis=1),
        np.take_along_axis(vs, order, axis=1),
        np.take_along_axis(lengths, order, axis=1),
    )


def critical_range(positions: Positions) -> float:
    """Minimum transmitting range that connects ``positions``.

    This is the bottleneck (longest) edge of the Euclidean minimum spanning
    tree, read off :func:`minimum_spanning_edges` — ``O(n^2)`` time and
    memory, fine for the network sizes used in the paper (n up to 128) and
    exact, unlike a bisection over builds.

    Returns 0.0 for zero or one node (such a network is trivially
    connected at any range).
    """
    _, _, lengths = minimum_spanning_edges(positions)
    if lengths.size == 0:
        return 0.0
    return range_reaching(float(lengths[-1]))


def longest_gap_1d(positions: Positions) -> float:
    """Largest spacing between consecutive nodes of a 1-D placement.

    For a 1-dimensional network the critical range is exactly the longest
    gap between consecutive sorted node positions; this specialised routine
    is ``O(n log n)`` and is used by the 1-D theory benchmarks where ``n``
    gets large.
    """
    points = as_positions(positions)
    if points.shape[1] != 1:
        raise AnalysisError(
            f"longest_gap_1d requires a 1-D placement, got dimension {points.shape[1]}"
        )
    n = points.shape[0]
    if n <= 1:
        return 0.0
    coordinates = np.sort(points[:, 0])
    return float(np.max(np.diff(coordinates)))
