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
* what is the smallest range at which that average reaches a target
  (:func:`range_for_component_fraction`) — the paper's ``rl90``, ``rl75``
  and ``rl50``.

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


def range_for_component_fraction(
    frames: FrameStatisticsColumns, target_fraction: float
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
    breakpoints = np.unique(frames.curve_ranges)
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
