"""The simulator's result containers: per-frame connectivity statistics.

Every frame (one placement, one mobility step) is reduced to its exact
critical range (the longest MST edge) and its component-growth curve
(largest component size as a non-decreasing step function of the range).
The paper's fixed-range outputs (Section 4.1: the percentage of connected
graphs and the size of the largest connected component, per iteration
and across iterations) are queries on these statistics at a range ``r``.

Columnar layout
---------------
At paper scale an iteration observes 10 000 mobility steps, so per-step
Python objects would dominate both memory and the pickling cost of
shipping results between worker processes.
:class:`FrameStatisticsColumns` is therefore *columnar* (struct-of-arrays):
per-frame bottleneck (critical) ranges as ``float64[frames]`` plus the
component-growth curves flattened into ``curve_ranges``/``curve_sizes``
arrays indexed by ``curve_offsets`` (frame ``i`` owns the slice
``curve_offsets[i]:curve_offsets[i + 1]``).  It answers a fixed-range
question for every frame at once
(:meth:`~FrameStatisticsColumns.connected_at`,
:meth:`~FrameStatisticsColumns.largest_component_sizes_at`).

It also behaves as an immutable sequence of single-frame
:class:`FrameStatistics`, the reference type the tests compare against,
and serializes as a handful of NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


def compact_ints(values: np.ndarray) -> np.ndarray:
    """Smallest unsigned copy of a non-negative int array (for pickling).

    Arrays containing negatives (possible in hand-built containers) are
    passed through unconverted — an unsigned cast would silently wrap
    them.
    """
    if values.size == 0:
        return values.astype(np.uint8)
    if values.min() < 0:
        return values
    return values.astype(np.min_scalar_type(int(values.max())))


def _rebuild_frame_columns(node_count, criticals, offsets, ranges, sizes):
    return FrameStatisticsColumns(
        node_count=node_count,
        critical_ranges=criticals,
        curve_offsets=offsets,
        curve_ranges=ranges,
        curve_sizes=sizes,
    )


@dataclass(frozen=True)
class FrameStatistics:
    """Range-independent connectivity summary of one placement (frame).

    Attributes:
        critical_range: the exact minimum range connecting the frame
            (longest MST edge; 0 for fewer than two nodes).
        component_curve: breakpoints ``(range, largest_component_size)`` of
            the non-decreasing step function "largest component size at
            range r"; between breakpoints the size is that of the previous
            breakpoint, and below the first breakpoint it is 1 (every node
            is its own component).
        node_count: number of nodes in the frame.
    """

    critical_range: float
    component_curve: Tuple[Tuple[float, int], ...]
    node_count: int

    def largest_component_size_at(self, transmitting_range: float) -> int:
        """Largest component size of this frame at the given range."""
        if self.node_count == 0:
            return 0
        size = 1
        for breakpoint_range, breakpoint_size in self.component_curve:
            if breakpoint_range <= transmitting_range:
                size = breakpoint_size
            else:
                break
        return size

    def is_connected_at(self, transmitting_range: float) -> bool:
        """``True`` if this frame's graph is connected at the given range."""
        return transmitting_range >= self.critical_range


class FrameStatisticsColumns(Sequence[FrameStatistics]):
    """Columnar storage of the per-frame statistics of one iteration.

    Attributes:
        node_count: nodes per frame (constant across an iteration).
        critical_ranges: ``float64[frames]`` exact bottleneck ranges.
        curve_offsets: ``int64[frames + 1]``; frame ``i`` owns curve rows
            ``curve_offsets[i]:curve_offsets[i + 1]``.
        curve_ranges / curve_sizes: the flattened component-growth
            breakpoints of all frames.
    """

    __slots__ = ("node_count", "critical_ranges", "curve_offsets",
                 "curve_ranges", "curve_sizes")

    def __init__(
        self,
        node_count: int,
        critical_ranges: np.ndarray,
        curve_offsets: np.ndarray,
        curve_ranges: np.ndarray,
        curve_sizes: np.ndarray,
    ) -> None:
        self.node_count = int(node_count)
        self.critical_ranges = np.asarray(critical_ranges, dtype=float)
        self.curve_offsets = np.asarray(curve_offsets, dtype=np.int64)
        self.curve_ranges = np.asarray(curve_ranges, dtype=float)
        self.curve_sizes = np.asarray(curve_sizes, dtype=np.int64)
        if self.curve_offsets.shape[0] != self.critical_ranges.shape[0] + 1:
            raise ValueError(
                "curve_offsets must have one more entry than critical_ranges"
            )

    @classmethod
    def from_frames(
        cls, frames: Iterable[FrameStatistics]
    ) -> "FrameStatisticsColumns":
        """Convert an object-list representation (one shared node count)."""
        materialised = list(frames)
        node_count = materialised[0].node_count if materialised else 0
        offsets = [0]
        ranges: List[float] = []
        sizes: List[int] = []
        for frame in materialised:
            if frame.node_count != node_count:
                raise ValueError(
                    "FrameStatisticsColumns requires a constant node count, "
                    f"got {frame.node_count} after {node_count}"
                )
            for breakpoint_range, breakpoint_size in frame.component_curve:
                ranges.append(breakpoint_range)
                sizes.append(breakpoint_size)
            offsets.append(len(ranges))
        return cls(
            node_count=node_count,
            critical_ranges=np.array(
                [frame.critical_range for frame in materialised], dtype=float
            ),
            curve_offsets=np.array(offsets, dtype=np.int64),
            curve_ranges=np.array(ranges, dtype=float),
            curve_sizes=np.array(sizes, dtype=np.int64),
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["FrameStatisticsColumns"]
    ) -> "FrameStatisticsColumns":
        """Pool several containers (e.g. all iterations of a run) into one."""
        if not parts:
            return cls(0, np.empty(0), np.zeros(1, dtype=np.int64),
                       np.empty(0), np.empty(0, dtype=np.int64))
        node_counts = {part.node_count for part in parts}
        if len(node_counts) > 1:
            raise ValueError(
                f"cannot concatenate containers with node counts {sorted(node_counts)}"
            )
        offsets = [parts[0].curve_offsets]
        for part in parts[1:]:
            offsets.append(part.curve_offsets[1:] + (offsets[-1][-1] - part.curve_offsets[0]))
        return cls(
            node_count=parts[0].node_count,
            critical_ranges=np.concatenate([p.critical_ranges for p in parts]),
            curve_offsets=np.concatenate(offsets),
            curve_ranges=np.concatenate([p.curve_ranges for p in parts]),
            curve_sizes=np.concatenate([p.curve_sizes for p in parts]),
        )

    # ------------------------------------------------------------------ #
    # Vectorized per-range reductions (the threshold-extraction hot path)
    # ------------------------------------------------------------------ #
    def connected_at(self, transmitting_range: float) -> np.ndarray:
        """Boolean array: is each frame connected at the given range?"""
        return transmitting_range >= self.critical_ranges

    def largest_component_sizes_at(self, transmitting_range: float) -> np.ndarray:
        """Largest component size of every frame at the given range.

        Vectorized evaluation of the per-frame step functions: count the
        breakpoints at or below the range in every frame's curve slice
        (``np.add.reduceat`` over the flattened columns) and read the size
        of the last one, defaulting to 1 (each node is its own component).

        Every frame of two or more nodes owns at least one breakpoint (its
        curve ends at ``(critical_range, node_count)``), so no slice is
        empty — ``np.add.reduceat`` would misread one.  The engine builds
        no other container, and the store's decoder refuses one.
        """
        frame_count = self.critical_ranges.shape[0]
        if frame_count == 0:
            return np.empty(0, dtype=np.int64)
        if self.node_count <= 1:
            return np.full(frame_count, min(self.node_count, 1), dtype=np.int64)
        starts = self.curve_offsets[:-1]
        below = (self.curve_ranges <= transmitting_range).astype(np.int64)
        counts = np.add.reduceat(below, starts)
        last_below = np.maximum(starts + counts - 1, 0)
        return np.where(counts > 0, self.curve_sizes[last_below], 1)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.critical_ranges.shape[0]

    def _frame(self, position: int) -> FrameStatistics:
        start, stop = self.curve_offsets[position], self.curve_offsets[position + 1]
        curve = tuple(
            (float(r), int(s))
            for r, s in zip(self.curve_ranges[start:stop], self.curve_sizes[start:stop])
        )
        return FrameStatistics(
            critical_range=float(self.critical_ranges[position]),
            component_curve=curve,
            node_count=self.node_count,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._frame(i) for i in range(*index.indices(len(self)))]
        position = int(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(position)
        return self._frame(position)

    def __iter__(self) -> Iterator[FrameStatistics]:
        for position in range(len(self)):
            yield self._frame(position)

    def __eq__(self, other) -> bool:
        if isinstance(other, FrameStatisticsColumns):
            return bool(
                self.node_count == other.node_count
                and np.array_equal(self.critical_ranges, other.critical_ranges)
                and np.array_equal(self.curve_offsets, other.curve_offsets)
                and np.array_equal(self.curve_ranges, other.curve_ranges)
                and np.array_equal(self.curve_sizes, other.curve_sizes)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        """Compact transport encoding: the breakpoint ranges stay float64
        (thresholds must remain bit-identical across process boundaries),
        but sizes and offsets travel at their minimal integer width."""
        return (
            _rebuild_frame_columns,
            (
                self.node_count,
                self.critical_ranges,
                compact_ints(self.curve_offsets),
                self.curve_ranges,
                compact_ints(self.curve_sizes),
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FrameStatisticsColumns(frames={len(self)}, "
            f"node_count={self.node_count})"
        )
