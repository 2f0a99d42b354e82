"""The simulation engine.

Two modes are provided:

* :func:`simulate_iteration` — the paper's simulator: a fixed transmitting
  range is given, and the engine records at every mobility step whether the
  communication graph is connected and how large its largest component is.
* :func:`simulate_frame_statistics` — the trace-statistics mode: no range is
  fixed; instead every frame is reduced to its exact critical range (the
  longest MST edge) and its component-growth curve (largest component size
  as a non-decreasing step function of the range).  From those two pieces
  every threshold the paper studies can be recovered *for any range*
  without re-running mobility, which is how the Figure 2–9 benchmarks stay
  affordable.

Both modes are vectorized end to end: mobility trajectories are produced as
batched ``(steps, n, d)`` arrays (see :meth:`repro.mobility.base.
MobilityModel.trajectory` — the paper's waypoint and drunkard models both
override it, so no paper configuration falls back to the per-step Python
loop), each frame is reduced through the sorted MST edges of
:func:`repro.connectivity.critical_range.minimum_spanning_edges`, so only
``n - 1`` union-find operations — not one per ``O(n^2)`` candidate edge —
run in Python per frame, and the per-frame outputs are accumulated into the
columnar containers of :mod:`repro.simulation.results`
(:class:`~repro.simulation.results.StepColumns` /
:class:`~repro.simulation.results.FrameStatisticsColumns`), which ship
between worker processes as a handful of arrays instead of one pickled
dataclass per step.  The pre-vectorization reduction is kept as
:func:`component_growth_curve_reference` for property tests and the
micro-benchmark in ``benchmarks/bench_parallel_scaling.py``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.connectivity.critical_range import (
    minimum_spanning_edges,
    minimum_spanning_edges_batch,
    range_reaching,
)
from repro.exceptions import SimulationError
from repro.geometry.distance import squared_distance_matrix
from repro.graph.union_find import UnionFind
from repro.mobility.base import MobilityModel
from repro.simulation.config import MobilitySpec, NetworkConfig
from repro.simulation.results import (
    FrameStatistics,
    FrameStatisticsColumns,
    IterationResult,
    StepColumns,
)
from repro.types import Positions

__all__ = [
    "FrameStatistics",
    "FrameStatisticsColumns",
    "component_growth_curve",
    "component_growth_curve_reference",
    "frame_statistics",
    "frame_statistics_columns",
    "frames_per_batch",
    "simulate_frame_statistics",
    "simulate_iteration",
]

#: Elements of one ``(B, n)`` working array of the batched MST kernel,
#: which sets the frames per trajectory batch: B = 32 768 // n.  Each such
#: float64 array is 256 KiB, so the handful the kernel keeps live fit in a
#: 2 MiB per-core L2 cache.  At n = 128 on a 2-core Xeon host, the kernel
#: took 242 us/frame at B = 256, against 278 at B = 1024 and 351 at B = 32.
_TRAJECTORY_BATCH_ELEMENTS = 32_768


def frames_per_batch(node_count: int) -> int:
    """Frames one batched kernel call reduces at ``node_count`` nodes.

    ``_TRAJECTORY_BATCH_ELEMENTS // n`` (at least one), so every ``(B, n)``
    working array of :func:`repro.connectivity.critical_range.
    minimum_spanning_edges_batch` has about ``_TRAJECTORY_BATCH_ELEMENTS``
    elements.
    """
    return max(1, _TRAJECTORY_BATCH_ELEMENTS // max(1, node_count))


def component_growth_curve(positions: Positions) -> Tuple[Tuple[float, int], ...]:
    """Breakpoints of "largest component size as a function of the range".

    Computed with a Kruskal-style sweep over the sorted MST edges of
    :func:`repro.connectivity.critical_range.minimum_spanning_edges`: the
    component partition at every length threshold is fully determined by
    the MST, so only its ``n - 1`` edges are merged into the union-find
    structure.  Every time the size of the largest set grows, a breakpoint
    ``(distance, new_size)`` is emitted; breakpoints sharing a range value
    (tied edge lengths) are coalesced into the last one.  The final
    breakpoint is always ``(critical_range, n)``.
    """
    points = np.asarray(positions, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[0]
    if n <= 1:
        return ()
    us, vs, lengths = minimum_spanning_edges(points)
    return _curve_from_sorted_mst_edges(
        us.tolist(), vs.tolist(), lengths.tolist(), n
    )


def _curve_from_sorted_mst_edges(
    us: List[int], vs: List[int], lengths: List[float], n: int
) -> Tuple[Tuple[float, int], ...]:
    """Union-find sweep over sorted MST edges, emitting growth breakpoints.

    This runs once per simulated frame over plain Python lists, so the
    union-find is inlined (path halving, union by size) rather than paying
    a method call per edge.
    """
    parent = list(range(n))
    size = [1] * n
    breakpoints: List[Tuple[float, int]] = []
    largest = 1
    for u, v, squared_length in zip(us, vs, lengths):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        # MST edges always join two distinct components (u != v here).
        if size[u] < size[v]:
            u, v = v, u
        parent[v] = u
        size[u] += size[v]
        if size[u] > largest:
            largest = size[u]
            breakpoint_range = range_reaching(squared_length)
            if breakpoints and breakpoints[-1][0] == breakpoint_range:
                breakpoints[-1] = (breakpoint_range, largest)
            else:
                breakpoints.append((breakpoint_range, largest))
    return tuple(breakpoints)


def component_growth_curve_reference(
    positions: Positions,
) -> Tuple[Tuple[float, int], ...]:
    """Pre-vectorization :func:`component_growth_curve` (dense edge sweep).

    Sweeps all ``O(n^2)`` candidate edges in sorted order instead of just
    the MST edges.  Kept as the independent ground truth for the property
    tests and for the vectorized-vs-seed micro-benchmark; both
    implementations produce identical curves away from exact ties in the
    pairwise distances (ties have probability zero for the continuous
    placements the simulations draw).
    """
    points = np.asarray(positions, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[0]
    if n <= 1:
        return ()
    squared = squared_distance_matrix(points)
    rows, cols = np.triu_indices(n, k=1)
    lengths = squared[rows, cols]
    order = np.argsort(lengths, kind="stable")
    structure = UnionFind(n)
    breakpoints: List[Tuple[float, int]] = []
    largest = 1
    for index in order:
        u = int(rows[index])
        v = int(cols[index])
        if structure.union(u, v):
            size = structure.set_size(u)
            if size > largest:
                largest = size
                breakpoints.append((range_reaching(float(lengths[index])), size))
                if largest == n:
                    break
    return tuple(breakpoints)


def frame_statistics(positions: Positions) -> FrameStatistics:
    """Compute the :class:`FrameStatistics` of a single placement."""
    points = np.asarray(positions, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    curve = component_growth_curve(points)
    if curve:
        frame_critical = curve[-1][0]
    else:
        frame_critical = 0.0
    return FrameStatistics(
        critical_range=frame_critical,
        component_curve=curve,
        node_count=points.shape[0],
    )


def frame_statistics_columns(frames: np.ndarray) -> FrameStatisticsColumns:
    """Reduce a ``(B, n, d)`` batch of frames to columnar statistics.

    Bit-identical to calling :func:`frame_statistics` on each frame, but the
    MST construction runs batched across all frames
    (:func:`repro.connectivity.critical_range.minimum_spanning_edges_batch`),
    so the per-frame Python cost is one ``n - 1``-edge sweep instead of a
    full Prim loop, and the breakpoints land directly in the flattened
    columns of :class:`~repro.simulation.results.FrameStatisticsColumns`
    (no per-step objects are materialised).  This is the per-frame hot path
    of both simulation modes.
    """
    points = np.asarray(frames, dtype=float)
    if points.ndim != 3:
        raise SimulationError(
            f"expected a (B, n, d) batch of frames, got shape {points.shape}"
        )
    batch, n = points.shape[0], points.shape[1]
    if n <= 1:
        return FrameStatisticsColumns(
            node_count=n,
            critical_ranges=np.zeros(batch),
            curve_offsets=np.zeros(batch + 1, dtype=np.int64),
            curve_ranges=np.empty(0),
            curve_sizes=np.empty(0, dtype=np.int64),
        )
    all_us, all_vs, all_lengths = minimum_spanning_edges_batch(points)
    critical_ranges = np.empty(batch)
    offsets = np.empty(batch + 1, dtype=np.int64)
    offsets[0] = 0
    flat_ranges: List[float] = []
    flat_sizes: List[int] = []
    for index, (us, vs, lengths) in enumerate(zip(all_us, all_vs, all_lengths)):
        curve = _curve_from_sorted_mst_edges(
            us.tolist(), vs.tolist(), lengths.tolist(), n
        )
        for breakpoint_range, breakpoint_size in curve:
            flat_ranges.append(breakpoint_range)
            flat_sizes.append(breakpoint_size)
        offsets[index + 1] = len(flat_ranges)
        critical_ranges[index] = curve[-1][0] if curve else 0.0
    return FrameStatisticsColumns(
        node_count=n,
        critical_ranges=critical_ranges,
        curve_offsets=offsets,
        curve_ranges=np.array(flat_ranges),
        curve_sizes=np.array(flat_sizes, dtype=np.int64),
    )


def _iter_trajectory_batches(
    model: MobilityModel,
    steps: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Yield the run's ``steps`` frames as bounded ``(k, n, d)`` batches.

    The first batch starts at the model's current positions (step 0);
    later batches continue from wherever the previous one left the model.
    Each batch holds :func:`frames_per_batch` frames.
    """
    batch_size = frames_per_batch(model.state.positions.shape[0])
    produced = 0
    while produced < steps:
        count = min(batch_size, steps - produced)
        if produced == 0:
            frames = model.trajectory(count, rng)
        else:
            # Frame 0 of a trajectory is the current (already yielded)
            # position array, so request one extra frame and drop it.
            frames = model.trajectory(count + 1, rng)[1:]
        produced += frames.shape[0]
        yield frames


def simulate_iteration(
    network: NetworkConfig,
    mobility: MobilitySpec,
    steps: int,
    transmitting_range: float,
    rng: np.random.Generator,
    iteration: int = 0,
) -> IterationResult:
    """Run one iteration of the paper's fixed-range simulator.

    A fresh placement is drawn, a fresh mobility model instance is bound to
    it, and for each of ``steps`` mobility steps (the initial placement
    counts as step 0, matching the paper's ``#steps = 1`` = stationary
    convention) the connectivity of the induced graph is recorded.  Each
    frame is reduced through its MST edges (:func:`frame_statistics`),
    which answers both "connected?" and "largest component size?" at the
    fixed range exactly — a graph is connected at ``r`` iff ``r`` reaches
    its bottleneck MST edge.  The records come back as columnar
    :class:`~repro.simulation.results.StepColumns` (two arrays per
    iteration) rather than per-step objects.
    """
    region = network.region
    placement = network.placement_strategy(network.node_count, region, rng)
    model = mobility.create()
    model.initialize(placement, region, rng)
    # Seeded with empties so concatenation never sees an empty list.
    connected_parts: List[np.ndarray] = [np.empty(0, dtype=bool)]
    size_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for batch in _iter_trajectory_batches(model, steps, rng):
        columns = frame_statistics_columns(batch)
        connected_parts.append(columns.connected_at(transmitting_range))
        size_parts.append(columns.largest_component_sizes_at(transmitting_range))
    return IterationResult(
        iteration=iteration,
        node_count=network.node_count,
        transmitting_range=transmitting_range,
        records=StepColumns(
            connected=np.concatenate(connected_parts),
            largest_component=np.concatenate(size_parts),
        ),
    )


def simulate_frame_statistics(
    network: NetworkConfig,
    mobility: MobilitySpec,
    steps: int,
    rng: np.random.Generator,
) -> FrameStatisticsColumns:
    """Run one mobility iteration and reduce every frame to its statistics.

    The returned :class:`~repro.simulation.results.FrameStatisticsColumns`
    holds one entry per step (step 0 is the initial placement) and behaves
    as a sequence of :class:`FrameStatistics`.  All range thresholds of the
    paper can then be derived with :mod:`repro.simulation.metrics` without
    re-simulating.  Frames are produced as batched ``(k, n, d)`` trajectory
    arrays, so models with a vectorized :meth:`~repro.mobility.base.
    MobilityModel.trajectory` (the stationary, waypoint and drunkard models
    — every model the paper uses) skip the per-step Python overhead.
    """
    region = network.region
    placement = network.placement_strategy(network.node_count, region, rng)
    model = mobility.create()
    model.initialize(placement, region, rng)
    return FrameStatisticsColumns.concatenate([
        frame_statistics_columns(batch)
        for batch in _iter_trajectory_batches(model, steps, rng)
    ])
