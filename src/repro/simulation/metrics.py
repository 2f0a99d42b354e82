"""Threshold extraction from frame statistics.

Given the per-frame statistics produced by
:func:`repro.simulation.engine.simulate_frame_statistics`, these functions
answer the questions behind Figures 2–6:

* what fraction of frames is connected at a given range
  (:func:`connectivity_fraction_at`);
* what is the smallest range at which that fraction reaches ``f``
  (:func:`range_for_connectivity_fraction`) — the paper's ``r100``, ``r90``
  and ``r10`` for ``f`` = 1.0, 0.9, 0.1;
* what is the largest range at which *no* frame is connected
  (:func:`range_for_no_connectivity`) — the paper's ``r0``;
* what is the average largest-component fraction at a given range
  (:func:`average_largest_fraction_at`) — Figures 4 and 5;
* what is the smallest range at which that average reaches a target
  (:func:`range_for_component_fraction`) — the paper's ``rl90``, ``rl75``
  and ``rl50``.

All the per-frame quantities are exact (MST bottleneck and Kruskal sweep),
so the only statistical error in the thresholds comes from the Monte-Carlo
sampling of placements and mobility — exactly as in the paper.

Every function accepts any sequence of :class:`FrameStatistics`; when it is
handed the columnar :class:`repro.simulation.results.
FrameStatisticsColumns` the engine produces, the per-frame Python loops are
replaced by array reductions over the flattened bottleneck-range and
component-curve columns.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import SearchError
from repro.simulation.results import FrameStatistics, FrameStatisticsColumns


def _as_columns(
    frames: Sequence[FrameStatistics],
) -> Optional[FrameStatisticsColumns]:
    """The columnar view of ``frames`` when it already is one."""
    if isinstance(frames, FrameStatisticsColumns):
        return frames
    return None


def largest_component_size_at(
    frames: Sequence[FrameStatistics], transmitting_range: float
) -> List[int]:
    """Largest component size of each frame at the given range."""
    columns = _as_columns(frames)
    if columns is not None:
        return columns.largest_component_sizes_at(transmitting_range).tolist()
    return [frame.largest_component_size_at(transmitting_range) for frame in frames]


def connectivity_fraction_at(
    frames: Sequence[FrameStatistics], transmitting_range: float
) -> float:
    """Fraction of frames whose graph is connected at the given range."""
    if not len(frames):
        return 0.0
    columns = _as_columns(frames)
    if columns is not None:
        return float(columns.connected_at(transmitting_range).mean())
    connected = sum(1 for frame in frames if frame.is_connected_at(transmitting_range))
    return connected / len(frames)


def average_largest_fraction_at(
    frames: Sequence[FrameStatistics], transmitting_range: float
) -> float:
    """Mean largest-component fraction over all frames at the given range.

    Frames with zero nodes carry no component information and are excluded
    from both the numerator and the denominator (matching
    :func:`minimum_largest_fraction_at`); if every frame is empty the
    average is 0.0.
    """
    columns = _as_columns(frames)
    if columns is not None:
        if not len(columns) or columns.node_count == 0:
            return 0.0
        sizes = columns.largest_component_sizes_at(transmitting_range)
        return float(sizes.mean()) / columns.node_count
    # With one shared node count, evaluate exactly like the columnar path
    # (mean of the integer sizes, then one division) so the same frames
    # give the bit-same average in either representation.
    node_counts = {frame.node_count for frame in frames}
    if len(node_counts) == 1 and 0 not in node_counts and len(frames):
        node_count = node_counts.pop()
        sizes = np.fromiter(
            (
                frame.largest_component_size_at(transmitting_range)
                for frame in frames
            ),
            dtype=np.int64,
            count=len(frames),
        )
        return float(sizes.mean()) / node_count
    total = 0.0
    counted = 0
    for frame in frames:
        if frame.node_count == 0:
            continue
        total += frame.largest_component_size_at(transmitting_range) / frame.node_count
        counted += 1
    return total / counted if counted else 0.0


def minimum_largest_fraction_at(
    frames: Sequence[FrameStatistics], transmitting_range: float
) -> float:
    """Smallest largest-component fraction over all frames at the given range."""
    if not len(frames):
        return 0.0
    columns = _as_columns(frames)
    if columns is not None:
        if columns.node_count == 0:
            return 0.0
        sizes = columns.largest_component_sizes_at(transmitting_range)
        return float(sizes.min()) / columns.node_count
    fractions = [
        frame.largest_component_size_at(transmitting_range) / frame.node_count
        for frame in frames
        if frame.node_count > 0
    ]
    return min(fractions) if fractions else 0.0


def range_for_connectivity_fraction(
    frames: Sequence[FrameStatistics], fraction: float
) -> float:
    """Smallest range at which at least ``fraction`` of the frames connect.

    Because a frame is connected exactly when the range reaches its critical
    range, this is the ``fraction``-quantile (inclusive) of the per-frame
    critical ranges.  ``fraction = 1.0`` gives the paper's ``r100``, 0.9
    gives ``r90`` and 0.1 gives ``r10``.
    """
    if not 0.0 < fraction <= 1.0:
        raise SearchError(f"fraction must be in (0, 1], got {fraction}")
    if not len(frames):
        raise SearchError("cannot extract a threshold from zero frames")
    columns = _as_columns(frames)
    if columns is not None:
        critical_ranges = np.sort(columns.critical_ranges)
    else:
        critical_ranges = sorted(frame.critical_range for frame in frames)
    count = len(critical_ranges)
    index = int(math.ceil(fraction * count)) - 1
    index = min(max(index, 0), count - 1)
    return float(critical_ranges[index])


def range_for_no_connectivity(frames: Sequence[FrameStatistics]) -> float:
    """Largest range at which *no* frame is connected (the paper's ``r0``).

    This is the supremum of ranges strictly below the smallest per-frame
    critical range; the value returned is that smallest critical range
    itself (at which exactly one frame first becomes connected), consistent
    with how the paper reads ``r0`` off its simulation sweeps.
    """
    if not len(frames):
        raise SearchError("cannot extract a threshold from zero frames")
    columns = _as_columns(frames)
    if columns is not None:
        return float(columns.critical_ranges.min())
    return min(frame.critical_range for frame in frames)


def range_for_component_fraction(
    frames: Sequence[FrameStatistics], target_fraction: float
) -> float:
    """Smallest range at which the *average* largest-component fraction
    reaches ``target_fraction`` (the paper's ``rl90``, ``rl75``, ``rl50``).

    The average of the per-frame step functions is itself a non-decreasing
    step function whose breakpoints are the union of the per-frame
    breakpoints, so the answer is found exactly by a binary search over the
    sorted breakpoint ranges.
    """
    if not 0.0 < target_fraction <= 1.0:
        raise SearchError(
            f"target_fraction must be in (0, 1], got {target_fraction}"
        )
    if not len(frames):
        raise SearchError("cannot extract a threshold from zero frames")

    # Quick exits: already above target at range 0, or unreachable even at
    # the largest breakpoint (cannot happen for target <= 1, but guard).
    if average_largest_fraction_at(frames, 0.0) >= target_fraction:
        return 0.0
    columns = _as_columns(frames)
    if columns is not None:
        breakpoints = np.unique(columns.curve_ranges)
    else:
        breakpoints = sorted(
            {
                breakpoint_range
                for frame in frames
                for breakpoint_range, _ in frame.component_curve
            }
        )
    if not len(breakpoints):
        return 0.0
    if average_largest_fraction_at(frames, breakpoints[-1]) < target_fraction:
        raise SearchError(
            "the average largest-component fraction never reaches "
            f"{target_fraction}; largest achievable is "
            f"{average_largest_fraction_at(frames, breakpoints[-1]):.3f}"
        )
    low, high = 0, len(breakpoints) - 1
    while low < high:
        mid = (low + high) // 2
        if average_largest_fraction_at(frames, breakpoints[mid]) >= target_fraction:
            high = mid
        else:
            low = mid + 1
    return float(breakpoints[low])
