"""Exact critical transmitting ranges of a fixed placement.

For a *given* placement the MTR problem of Section 2 has an exact answer:
the minimum range making the point graph connected equals the longest edge
of a Euclidean minimum spanning tree of the points (the "bottleneck" edge).
This module computes that value directly — via Prim's algorithm over
squared distances: a dense ``(n, n)`` matrix for one placement, rows
computed on the fly for a batch of mobility frames — as well as the
analogous thresholds for partial connectivity (smallest range whose
largest component reaches a target fraction of ``n``) and for
k-connectivity (by bisection on candidate ranges).

These exact per-placement values are the building blocks of the
``rstationary`` estimates used as the denominator throughout Figures 2–9.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import AnalysisError
from repro.geometry.distance import pairwise_distances, squared_distance_matrix
from repro.graph.builder import build_communication_graph
from repro.graph.components import largest_component_fraction
from repro.graph.properties import is_k_connected
from repro.graph.union_find import UnionFind
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
    points = as_positions(positions)
    return minimum_spanning_edges_from_squared(squared_distance_matrix(points))


def minimum_spanning_edges_from_squared(
    squared: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`minimum_spanning_edges` over a precomputed squared-distance matrix.

    This is the reusable Prim core: metrics other than plain Euclidean
    (e.g. toroidal wrap-around) pass their own ``(n, n)`` squared-distance
    matrix and get the same sorted MST edges back.
    """
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
    sorted by squared length.  One Prim iteration here advances *every*
    frame at once with ``(B, n)`` array operations, so the per-call
    overhead of the ``n - 1`` loop iterations is amortised across the whole
    batch — this is what makes reducing a 10 000-step trajectory cheap.

    No distance matrix is materialised: each Prim step computes the
    chosen node's row of every frame's squared distances from the
    coordinates, accumulating ``(p_c,k - p_j,k)**2`` over ascending ``k``
    exactly as :func:`repro.geometry.distance.squared_distance_matrix`
    does.  Every edge length (and therefore every derived threshold) is
    bit-identical to the single-frame code path, and the working set is a
    few ``(B, n)`` arrays instead of a ``(B, n, n)`` stack.
    """
    points = np.asarray(frames, dtype=np.float64)
    if points.ndim != 3:
        raise AnalysisError(
            f"expected a (B, n, d) batch of frames, got shape {points.shape}"
        )
    batch, n, dimension = points.shape
    if n <= 1 or batch == 0:
        return (
            np.empty((batch, 0), dtype=np.int64),
            np.empty((batch, 0), dtype=np.int64),
            np.empty((batch, 0), dtype=np.float64),
        )
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


def critical_range_toroidal(positions: Positions, side: float) -> float:
    """Minimum transmitting range connecting ``positions`` on a torus.

    Identical to :func:`critical_range` but with wrap-around (toroidal)
    distances on the cube of side ``side``.  Useful for comparing against
    asymptotic results (e.g. the Penrose limit law in
    :mod:`repro.analysis.bounds_2d`) that are stated without boundary
    effects.  Like its Euclidean sibling, the returned radius is rounded up
    with :func:`range_reaching` so it really reaches the bottleneck pair.
    """
    from repro.geometry.distance import toroidal_squared_distance_matrix

    points = as_positions(positions)
    if points.shape[0] <= 1:
        return 0.0
    _, _, lengths = minimum_spanning_edges_from_squared(
        toroidal_squared_distance_matrix(points, side)
    )
    return range_reaching(float(lengths[-1]))


def critical_range_for_component_fraction(
    positions: Positions, fraction: float
) -> float:
    """Smallest range whose largest connected component has ``>= fraction * n`` nodes.

    Implemented with a Kruskal-style sweep over the sorted MST edges from
    :func:`minimum_spanning_edges` — the component partition at every
    length threshold is fully determined by the MST, so only ``n - 1``
    union operations run in Python instead of one per candidate edge.

    Args:
        fraction: target fraction of nodes in the largest component, in
            ``(0, 1]``; a value of 1.0 reproduces :func:`critical_range`.
    """
    if not 0.0 < fraction <= 1.0:
        raise AnalysisError(f"fraction must be in (0, 1], got {fraction}")
    points = as_positions(positions)
    n = points.shape[0]
    if n == 0:
        return 0.0
    target = max(1, int(math.ceil(fraction * n)))
    if target <= 1:
        return 0.0
    us, vs, lengths = minimum_spanning_edges(points)
    structure = UnionFind(n)
    for u, v, squared_length in zip(us.tolist(), vs.tolist(), lengths.tolist()):
        structure.union(u, v)
        if structure.set_size(u) >= target:
            return range_reaching(squared_length)
    # Unreachable for fraction <= 1, but keep a defensive return.
    return range_reaching(float(lengths[-1])) if lengths.size else 0.0


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


def range_for_k_connectivity(
    positions: Positions,
    k: int,
    tolerance: float = 1e-6,
    max_iterations: int = 64,
) -> Optional[float]:
    """Smallest range (to ``tolerance``) making the placement k-connected.

    Uses bisection between the 1-connectivity critical range and the
    placement diameter.  Returns ``None`` when even the complete graph on
    the placement is not k-connected (i.e. ``n <= k``).
    """
    if k <= 0:
        raise AnalysisError(f"k must be positive, got {k}")
    points = as_positions(positions)
    n = points.shape[0]
    if n <= k:
        return None
    low = critical_range(points)
    distances = pairwise_distances(points)
    high = float(distances.max())
    if high == 0.0:
        return 0.0

    def satisfied(radius: float) -> bool:
        graph = build_communication_graph(points, radius)
        return is_k_connected(graph, k)

    if satisfied(low):
        return low
    if not satisfied(high):
        return None
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if satisfied(mid):
            high = mid
        else:
            low = mid
        if high - low <= tolerance:
            break
    return high


def sorted_edge_lengths(positions: Positions) -> List[float]:
    """All pairwise distances sorted ascending (helper for sweeps/tests)."""
    points = as_positions(positions)
    n = points.shape[0]
    if n < 2:
        return []
    distances = pairwise_distances(points)
    rows, cols = np.triu_indices(n, k=1)
    return np.sort(distances[rows, cols]).tolist()
