"""Overhead of the array-backend seam, and speed of the batched MST kernel.

The backend refactor (:mod:`repro.backend`) routes every hot-path kernel
through an :class:`~repro.backend.ArrayBackend` handle — a namespace
attribute plus a handful of idiom-helper method calls per Prim iteration
— instead of hard-coded ``numpy`` calls.  That seam is only acceptable if
the default path pays (close to) nothing for it: this benchmark times the
seam kernel against the same matrix-free algorithm with its NumPy calls
inlined, on the per-frame hot path (batched MST construction over a
trajectory-sized batch of frames), and enforces an overhead bar of < 2%.

It also times the stacked kernel the matrix-free one replaced (a
``(B, n, n)`` stack of squared-distance matrices, one row gathered per
Prim step) and reports ``matrix_free_speedup`` = stacked ÷ seam.  Both
run paired in one interpreter, so the ratio is host-normalized;
``benchmarks/baseline.json`` gates it, so a kernel that gets slower fails
CI even though the dispatch overhead holds.

GPU backends (``cupy`` / ``torch``) are additionally timed when the host
can resolve them; on a CPU-only host those bars are skipped, never
enforced.  Timings land in ``BENCH_backend_dispatch.json``.
"""

import math
import time

import numpy as np

from repro.backend import NUMPY_BACKEND, available_backends, resolve_backend
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

#: Paired trials behind the dispatch-overhead bar.  Each trial runs both
#: variants back to back and the bar takes the *median of the per-trial
#: ratios* of thread CPU time.  On a shared host single runs of this
#: kernel vary by several percent in both directions, so a best-of-trials
#: minimum would compare one variant's luckiest run with the other's;
#: wall time would add preemption on top.
_TRIALS = 41

#: Paired trials behind ``matrix_free_speedup``, whose gate band is wide.
_SPEEDUP_TRIALS = 9

#: The enforced dispatch-overhead bar, as a fraction.
_OVERHEAD_BAR = 0.02


def _inline_mst_batch(frames: np.ndarray):
    """`minimum_spanning_edges_batch` with its NumPy calls inlined.

    Direct fancy indexing and ``np.copyto(..., where=)`` where the seam
    version calls ``backend.take_pairs`` / ``backend.put_pairs`` /
    ``backend.masked_assign`` — the same matrix-free algorithm without
    the dispatch, kept here as the dispatch-free baseline.
    """
    points = np.asarray(frames, dtype=np.float64)
    batch, n, dimension = points.shape
    batch_index = np.arange(batch)
    columns = [points[:, :, axis].copy() for axis in range(dimension)]

    def squared_row(node):
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


def test_numpy_seam_overhead_under_two_percent():
    frames = _frames()

    seam_edges = minimum_spanning_edges_batch(frames)
    for baseline in (_inline_mst_batch, _stacked_mst_batch):
        for seam_column, baseline_column in zip(seam_edges, baseline(frames)):
            assert np.array_equal(seam_column, baseline_column)

    def inline():
        return _inline_mst_batch(frames)

    def seam():
        return minimum_spanning_edges_batch(frames)

    def stacked():
        return _stacked_mst_batch(frames)

    ratio, inline_seconds, seam_seconds = _paired_ratio(inline, seam, _TRIALS)
    overhead = ratio - 1.0
    speedup, _, stacked_seconds = _paired_ratio(seam, stacked, _SPEEDUP_TRIALS)

    device_seconds = {}
    for name in available_backends():
        backend = resolve_backend(name)
        if backend.is_host:
            continue
        device_frames = backend.from_host(frames)
        minimum_spanning_edges_batch(device_frames, backend=backend)  # warm-up
        backend.synchronize()
        started = time.perf_counter()
        minimum_spanning_edges_batch(device_frames, backend=backend)
        backend.synchronize()
        device_seconds[name] = time.perf_counter() - started

    batch, n = frames.shape[0], frames.shape[1]
    print(f"\nbackend dispatch overhead (B={batch}, n={n}):")
    print(f"  inline numpy : {inline_seconds * 1e3:8.2f} ms")
    print(f"  seam (numpy) : {seam_seconds * 1e3:8.2f} ms  ({overhead:+.2%})")
    print(f"  stacked      : {stacked_seconds * 1e3:8.2f} ms  "
          f"(matrix-free speedup {speedup:.2f}x)")
    for name, elapsed in sorted(device_seconds.items()):
        print(f"  {name:<13}: {elapsed * 1e3:8.2f} ms")

    write_bench_summary(
        "backend_dispatch",
        {
            "batch": batch,
            "node_count": n,
            "inline_seconds": inline_seconds,
            "seam_seconds": seam_seconds,
            "overhead_fraction": overhead,
            "overhead_bar": _OVERHEAD_BAR,
            "stacked_seconds": stacked_seconds,
            "matrix_free_speedup": speedup,
            "device_backends_timed": sorted(device_seconds),
            **{
                f"{name}_seconds": elapsed
                for name, elapsed in sorted(device_seconds.items())
            },
        },
    )
    assert overhead < _OVERHEAD_BAR, (
        f"backend seam costs {overhead:.2%} over inlined numpy "
        f"({seam_seconds:.4f}s vs {inline_seconds:.4f}s)"
    )
