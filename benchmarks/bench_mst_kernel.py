"""Speed of the matrix-free batched MST kernel against the stacked one.

:func:`~repro.connectivity.critical_range.minimum_spanning_edges_batch`
computes each Prim step's distance row from the coordinates.  The kernel
it replaced stacked one ``(n, n)`` squared-distance matrix per frame into
``(B, n, n)`` and gathered the chosen node's row at each Prim step; it is
kept here as the reference.  This benchmark checks that both return the
same edges bit for bit and reports ``matrix_free_speedup`` = stacked ÷
matrix-free.  Both run paired in one interpreter, so the ratio is
host-normalized; ``benchmarks/baseline.json`` gates it, so a kernel that
gets slower fails CI.  Timings land in ``BENCH_mst_kernel.json``.
"""

import math
import time

import numpy as np

from repro.connectivity.critical_range import minimum_spanning_edges_batch
from repro.geometry.distance import squared_distance_matrix

from _helpers import bench_scale_name, write_bench_summary

#: (batch, node_count) per scale.  Smoke runs the batch shape the engine
#: feeds the kernel at n = 96 (B * n = 32 768, see
#: ``repro.simulation.engine._TRAJECTORY_BATCH_ELEMENTS``), short enough
#: for the trial schedule to stay well under a minute.
_SIZES = {
    "smoke": (341, 96),
    "default": (1024, 96),
    "paper": (1024, 128),
}

#: Paired trials behind ``matrix_free_speedup``.  Each trial runs both
#: kernels back to back and the metric is the *median of the per-trial
#: ratios* of thread CPU time: on a shared host single runs vary by
#: several percent in both directions, and wall time would add
#: preemption on top.
_SPEEDUP_TRIALS = 9


def _stacked_mst_batch(frames: np.ndarray):
    """The batched Prim kernel the matrix-free one replaced.

    Stacks every frame's squared-distance matrix into ``(B, n, n)`` and
    gathers the chosen node's row from it at each Prim step.  Kept as the
    reference the ``matrix_free_speedup`` metric is measured against.
    """
    points = np.asarray(frames, dtype=np.float64)
    batch, n, _ = points.shape
    squared = np.stack([squared_distance_matrix(frame) for frame in points])
    batch_index = np.arange(batch)
    in_tree = np.zeros((batch, n), dtype=bool)
    in_tree[:, 0] = True
    best = squared[:, 0, :].copy()
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
        in_tree[batch_index, candidate] = True
        best[batch_index, candidate] = math.inf
        row = np.where(in_tree, math.inf, squared[batch_index, candidate, :])
        closer = row < best
        parent = np.where(closer, candidate[:, None], parent)
        best = np.where(closer, row, best)
    order = np.argsort(lengths, axis=1, kind="stable")
    return (
        np.take_along_axis(us, order, axis=1),
        np.take_along_axis(vs, order, axis=1),
        np.take_along_axis(lengths, order, axis=1),
    )


def _frames() -> np.ndarray:
    batch, n = _SIZES.get(bench_scale_name(), _SIZES["smoke"])
    rng = np.random.default_rng(20020623)
    return rng.random((batch, n, 2)) * 16384.0


def _paired_ratio(baseline, variant, trials: int):
    """Median over ``trials`` of ``variant`` ÷ ``baseline`` CPU seconds.

    Both run back to back in every trial, alternating which goes first,
    so slow drift (thermal throttling, a noisy neighbour) hits both
    equally.  Returns the median ratio and each side's median seconds.
    """
    baseline()  # warm-up: caches, allocator, imports
    variant()
    ratios, seconds = [], {baseline: [], variant: []}
    for trial in range(trials):
        order = (baseline, variant) if trial % 2 == 0 else (variant, baseline)
        for run in order:
            started = time.thread_time()
            run()
            seconds[run].append(time.thread_time() - started)
        ratios.append(seconds[variant][-1] / seconds[baseline][-1])
    return (
        float(np.median(ratios)),
        float(np.median(seconds[baseline])),
        float(np.median(seconds[variant])),
    )


def test_matrix_free_kernel_against_the_stacked_one():
    frames = _frames()

    for kernel_column, stacked_column in zip(
        minimum_spanning_edges_batch(frames), _stacked_mst_batch(frames)
    ):
        assert np.array_equal(kernel_column, stacked_column)

    def kernel():
        return minimum_spanning_edges_batch(frames)

    def stacked():
        return _stacked_mst_batch(frames)

    speedup, kernel_seconds, stacked_seconds = _paired_ratio(
        kernel, stacked, _SPEEDUP_TRIALS
    )

    batch, n = frames.shape[0], frames.shape[1]
    print(f"\nbatched MST kernel (B={batch}, n={n}):")
    print(f"  matrix-free  : {kernel_seconds * 1e3:8.2f} ms")
    print(f"  stacked      : {stacked_seconds * 1e3:8.2f} ms  "
          f"(matrix-free speedup {speedup:.2f}x)")

    write_bench_summary(
        "mst_kernel",
        {
            "batch": batch,
            "node_count": n,
            "kernel_seconds": kernel_seconds,
            "stacked_seconds": stacked_seconds,
            "matrix_free_speedup": speedup,
        },
    )
