"""Threshold extraction from frame statistics.

Given the per-frame statistics produced by
:func:`repro.simulation.engine.simulate_frame_statistics` (one
:class:`~repro.simulation.results.FrameStatisticsColumns` per iteration,
or several pooled with
:meth:`~repro.simulation.results.FrameStatisticsColumns.concatenate`),
these functions answer the questions behind Figures 2–6:

* what is the smallest range at which the fraction of connected frames
  reaches ``f`` (:func:`range_for_connectivity_fraction`) — the paper's
  ``r100``, ``r90`` and ``r10`` for ``f`` = 1.0, 0.9, 0.1;
* what is the largest range at which *no* frame is connected
  (:func:`range_for_no_connectivity`) — the paper's ``r0``;
* what is the average largest-component fraction at a given range
  (:func:`average_largest_fraction_at`) — Figures 4 and 5;
* what is the smallest range at which that average reaches each of
  several targets (:func:`ranges_for_component_fractions`, from one sort
  of the breakpoints) — the paper's ``rl90``, ``rl75`` and ``rl50``.

The fixed-range questions themselves (which frames are connected at
``r``, how large is each frame's largest component) are the columns'
own :meth:`~repro.simulation.results.FrameStatisticsColumns.connected_at`
and :meth:`~repro.simulation.results.FrameStatisticsColumns.
largest_component_sizes_at`.

All the per-frame quantities are exact (MST bottleneck and Kruskal sweep),
so the only statistical error in the thresholds comes from the Monte-Carlo
sampling of placements and mobility — exactly as in the paper.  Every
function is an array reduction over the flattened bottleneck-range and
component-curve columns.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.exceptions import SearchError
from repro.simulation.results import FrameStatisticsColumns


def average_largest_fraction_at(
    frames: FrameStatisticsColumns, transmitting_range: float
) -> float:
    """Mean largest-component fraction over all frames at the given range.

    0.0 for no frames, or frames of zero nodes (which carry no component
    information).
    """
    if not len(frames) or frames.node_count == 0:
        return 0.0
    sizes = frames.largest_component_sizes_at(transmitting_range)
    return float(sizes.mean()) / frames.node_count


def range_for_connectivity_fraction(
    frames: FrameStatisticsColumns, fraction: float
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
    critical_ranges = np.sort(frames.critical_ranges)
    count = len(critical_ranges)
    index = int(math.ceil(fraction * count)) - 1
    index = min(max(index, 0), count - 1)
    return float(critical_ranges[index])


def range_for_no_connectivity(frames: FrameStatisticsColumns) -> float:
    """Largest range at which *no* frame is connected (the paper's ``r0``).

    This is the supremum of ranges strictly below the smallest per-frame
    critical range; the value returned is that smallest critical range
    itself (at which exactly one frame first becomes connected), consistent
    with how the paper reads ``r0`` off its simulation sweeps.
    """
    if not len(frames):
        raise SearchError("cannot extract a threshold from zero frames")
    return float(frames.critical_ranges.min())


def ranges_for_component_fractions(
    frames: FrameStatisticsColumns, target_fractions: Sequence[float]
) -> List[float]:
    """Smallest range at which the *average* largest-component fraction
    reaches each of ``target_fractions``, from one sort of the breakpoints.

    0.0 for a target the average already reaches at range 0 (or when there
    are no breakpoints).  The average is a non-decreasing step function
    whose steps sit at the union of the per-frame breakpoints, so each
    answer is the first distinct breakpoint range whose average reaches
    the target: one ``searchsorted`` per target.

    Each breakpoint raises its frame's largest component by its size minus
    the previous size in the frame (1 before the frame's first), so the
    sizes summed over the frames at a range are the frame count plus the
    increments of the breakpoints at or below it: a cumulative sum over
    the breakpoints sorted by range, read at the last occurrence of each
    distinct range.  That sort need not be stable.  The integer sum is
    exact, and dividing it first by the frame count, then by the node
    count, is what :func:`average_largest_fraction_at` does to its mean,
    so every average is bit-identical to its own.  Each frame's
    breakpoints ascend, as the engine writes them.
    """
    for target in target_fractions:
        if not 0.0 < target <= 1.0:
            raise SearchError(f"target_fraction must be in (0, 1], got {target}")
    if not len(frames):
        raise SearchError("cannot extract a threshold from zero frames")
    frame_count, node_count = len(frames), frames.node_count
    if node_count <= 1:
        # At every range: no component information (0.0), or one node (1.0).
        ranges = np.unique(frames.curve_ranges)
        fractions = np.full(len(ranges), float(node_count))
        at_zero = float(node_count)
    else:
        sizes = frames.curve_sizes
        increments = np.diff(sizes, prepend=1)
        starts = frames.curve_offsets[:-1]
        starts = starts[starts < len(sizes)]
        increments[starts] = sizes[starts] - 1
        order = np.argsort(frames.curve_ranges)
        sorted_ranges = frames.curve_ranges[order]
        last = np.empty(len(sorted_ranges), dtype=bool)
        last[:-1] = sorted_ranges[1:] != sorted_ranges[:-1]
        last[-1:] = True
        totals = np.cumsum(increments[order])[last] + frame_count
        ranges = sorted_ranges[last]
        fractions = (totals / frame_count) / node_count
        at_or_below_zero = int(np.searchsorted(ranges, 0.0, side="right"))
        at_zero = (
            float(fractions[at_or_below_zero - 1]) if at_or_below_zero
            else 1.0 / node_count
        )
    thresholds = []
    for target in target_fractions:
        if at_zero >= target or not len(ranges):
            thresholds.append(0.0)
            continue
        if fractions[-1] < target:
            raise SearchError(
                "the average largest-component fraction never reaches "
                f"{target}; largest achievable is {fractions[-1]:.3f}"
            )
        thresholds.append(float(ranges[np.searchsorted(fractions, target)]))
    return thresholds
