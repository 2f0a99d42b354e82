"""Result containers of the fixed-range simulator.

These mirror the outputs the paper's simulator reports (Section 4.1): the
percentage of connected graphs, the average size of the largest connected
component *over the runs that yield a disconnected graph*, and the minimum
size of the largest connected component — each with reference to a single
iteration and to all iterations together.

Columnar layout
---------------
At paper scale an iteration observes 10 000 mobility steps, so per-step
Python objects dominate both memory and the pickling cost of shipping
results between worker processes.  The containers here are therefore
*columnar* (struct-of-arrays):

* :class:`StepColumns` — one ``connected: bool[steps]`` and one
  ``largest_component: int64[steps]`` array per iteration; step ``i`` is
  row ``i``.
* :class:`FrameStatisticsColumns` — per-frame bottleneck (critical) ranges
  as ``float64[frames]`` plus the component-growth curves flattened into
  ``curve_ranges``/``curve_sizes`` arrays indexed by ``curve_offsets``
  (frame ``i`` owns the slice ``curve_offsets[i]:curve_offsets[i + 1]``).

Both behave as immutable sequences of the original per-step objects
(:class:`StepRecord` / :class:`FrameStatistics`), so existing callers — and
the derived properties such as :attr:`IterationResult.connected_fraction` —
keep working unchanged; they serialize as a handful of NumPy arrays instead
of thousands of pickled dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class StepRecord:
    """Connectivity facts observed at one mobility step."""

    step: int
    connected: bool
    largest_component_size: int


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


def _rebuild_step_columns(count: int, packed: np.ndarray, sizes: np.ndarray):
    return StepColumns(
        connected=np.unpackbits(packed, count=count).astype(bool),
        largest_component=sizes,
    )


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


class StepColumns(Sequence[StepRecord]):
    """Columnar storage of one iteration's per-step records.

    Row ``i`` is mobility step ``i``; indexing materialises a
    :class:`StepRecord` view on demand.  Equality holds against any
    sequence of equivalent records, columnar or not.
    """

    __slots__ = ("connected", "largest_component")

    def __init__(self, connected: np.ndarray, largest_component: np.ndarray) -> None:
        self.connected = np.asarray(connected, dtype=bool)
        self.largest_component = np.asarray(largest_component, dtype=np.int64)
        if self.connected.shape != self.largest_component.shape:
            raise ValueError(
                "connected and largest_component must have the same length, "
                f"got {self.connected.shape} and {self.largest_component.shape}"
            )

    @classmethod
    def from_records(cls, records: Iterable[StepRecord]) -> "StepColumns":
        """Convert an object-list representation (steps must be 0, 1, …)."""
        materialised = list(records)
        return cls(
            connected=np.fromiter(
                (record.connected for record in materialised),
                dtype=bool,
                count=len(materialised),
            ),
            largest_component=np.fromiter(
                (record.largest_component_size for record in materialised),
                dtype=np.int64,
                count=len(materialised),
            ),
        )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.connected.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            # A tuple of records, not a re-based StepColumns: the records
            # keep their original step numbers, exactly like slicing a
            # tuple of StepRecord objects would.
            return tuple(
                self[position] for position in range(*index.indices(len(self)))
            )
        position = int(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(position)
        return StepRecord(
            step=position,
            connected=bool(self.connected[position]),
            largest_component_size=int(self.largest_component[position]),
        )

    def __iter__(self) -> Iterator[StepRecord]:
        for step, (connected, size) in enumerate(
            zip(self.connected.tolist(), self.largest_component.tolist())
        ):
            yield StepRecord(step=step, connected=connected, largest_component_size=size)

    def __eq__(self, other) -> bool:
        if isinstance(other, StepColumns):
            return bool(
                np.array_equal(self.connected, other.connected)
                and np.array_equal(self.largest_component, other.largest_component)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        """Compact transport encoding: one bit per step plus minimal-width
        component sizes, so a 10 000-step iteration pickles in ~11 KB where
        the object-list form needs ~220 KB."""
        return (
            _rebuild_step_columns,
            (
                int(self.connected.shape[0]),
                np.packbits(self.connected),
                compact_ints(self.largest_component),
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StepColumns(steps={len(self)})"


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
        """
        frame_count = self.critical_ranges.shape[0]
        if frame_count == 0:
            return np.empty(0, dtype=np.int64)
        if self.node_count <= 1 or self.curve_ranges.shape[0] == 0:
            return np.full(frame_count, min(self.node_count, 1), dtype=np.int64)
        starts = self.curve_offsets[:-1]
        empty = starts == self.curve_offsets[1:]
        if empty.any():
            # np.add.reduceat misreads zero-length slices; fall back.
            return np.fromiter(
                (frame.largest_component_size_at(transmitting_range) for frame in self),
                dtype=np.int64,
                count=frame_count,
            )
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


def pool_frame_statistics(
    per_iteration: Sequence[Sequence[FrameStatistics]],
) -> Sequence[FrameStatistics]:
    """Pool every frame of every iteration into one sequence.

    Keeps the columnar representation (one concatenated
    :class:`FrameStatisticsColumns`) when every iteration is columnar, so
    the pooled metrics stay vectorized; otherwise falls back to a flat
    list.
    """
    parts = list(per_iteration)
    if parts and all(isinstance(part, FrameStatisticsColumns) for part in parts):
        return FrameStatisticsColumns.concatenate(parts)
    return [frame for frames in parts for frame in frames]


def _step_columns(records: Sequence[StepRecord]) -> StepColumns:
    """View any record sequence through the columnar interface."""
    if isinstance(records, StepColumns):
        return records
    return StepColumns.from_records(records)


@dataclass(frozen=True)
class IterationResult:
    """All step records of one simulation iteration at a fixed range.

    ``records`` is normally a :class:`StepColumns` (columnar, cheap to
    pickle); hand-built sequences of :class:`StepRecord` are accepted too
    and converted on demand by the derived properties.
    """

    iteration: int
    node_count: int
    transmitting_range: float
    records: Sequence[StepRecord]

    # ------------------------------------------------------------------ #
    @property
    def step_count(self) -> int:
        """Number of mobility steps observed."""
        return len(self.records)

    @property
    def connected_fraction(self) -> float:
        """Fraction of steps at which the graph was connected."""
        columns = _step_columns(self.records)
        if not len(columns):
            return 0.0
        return float(columns.connected.mean())

    @property
    def largest_component_sizes(self) -> List[int]:
        """Largest component size at each step."""
        return _step_columns(self.records).largest_component.tolist()

    @property
    def average_largest_component_when_disconnected(self) -> Optional[float]:
        """Mean largest-component size over the *disconnected* steps.

        ``None`` when the network stayed connected for the whole iteration
        (the paper's simulator reports the average only over runs that
        yield a disconnected graph).
        """
        columns = _step_columns(self.records)
        disconnected = ~columns.connected
        if not disconnected.any():
            return None
        return float(columns.largest_component[disconnected].mean())

    @property
    def minimum_largest_component(self) -> int:
        """Smallest largest-component size seen during the iteration."""
        columns = _step_columns(self.records)
        if not len(columns):
            return 0
        return int(columns.largest_component.min())

    @property
    def average_largest_component(self) -> float:
        """Mean largest-component size over all steps."""
        columns = _step_columns(self.records)
        if not len(columns):
            return 0.0
        return float(columns.largest_component.mean())


@dataclass(frozen=True)
class MobileRunResult:
    """Aggregate of all iterations of a fixed-range simulation."""

    transmitting_range: float
    node_count: int
    iterations: Sequence[IterationResult]

    # ------------------------------------------------------------------ #
    def _pooled(self) -> StepColumns:
        """All iterations' step columns, concatenated in order.

        Cached after the first access (the dataclass is frozen, so the
        cache goes through ``object.__setattr__``): several properties pool
        the same 50 x 10 000-step arrays, and one concatenation is enough.
        """
        cached = getattr(self, "_pooled_cache", None)
        if cached is not None:
            return cached
        columns = [_step_columns(result.records) for result in self.iterations]
        if not columns:
            pooled = StepColumns(
                np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
            )
        else:
            pooled = StepColumns(
                np.concatenate([c.connected for c in columns]),
                np.concatenate([c.largest_component for c in columns]),
            )
        object.__setattr__(self, "_pooled_cache", pooled)
        return pooled

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_pooled_cache", None)
        return state

    @property
    def iteration_count(self) -> int:
        """Number of iterations that were run."""
        return len(self.iterations)

    @property
    def connected_fraction(self) -> float:
        """Fraction of all observed steps at which the graph was connected."""
        pooled = self._pooled()
        if not len(pooled):
            return 0.0
        return float(pooled.connected.mean())

    @property
    def per_iteration_connected_fraction(self) -> List[float]:
        """The connected fraction of each iteration, in order."""
        return [result.connected_fraction for result in self.iterations]

    @property
    def average_largest_component_when_disconnected(self) -> Optional[float]:
        """Mean largest-component size over every disconnected step.

        ``None`` if no step in any iteration was disconnected.
        """
        pooled = self._pooled()
        disconnected = ~pooled.connected
        if not disconnected.any():
            return None
        return float(pooled.largest_component[disconnected].mean())

    @property
    def average_largest_component_fraction(self) -> float:
        """Mean largest-component size over all steps, as a fraction of ``n``."""
        pooled = self._pooled()
        if not len(pooled) or self.node_count == 0:
            return 0.0
        return float(pooled.largest_component.mean()) / self.node_count

    @property
    def minimum_largest_component(self) -> int:
        """Smallest largest-component size seen over all iterations."""
        pooled = self._pooled()
        if not len(pooled):
            return 0
        return int(pooled.largest_component.min())

    @property
    def always_connected(self) -> bool:
        """``True`` if every step of every iteration was connected."""
        return bool(self._pooled().connected.all())

    @property
    def never_connected(self) -> bool:
        """``True`` if no step of any iteration was connected."""
        return not bool(self._pooled().connected.any())
