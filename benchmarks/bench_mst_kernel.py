"""Speed of the MST kernel's and the mobility models' lanes, each against its reference.

:func:`~repro.connectivity.critical_range.minimum_spanning_edges_batch`
has a NumPy lane (``_minimum_spanning_edges_batch_numpy``, which computes
each Prim step's distance row from the coordinates) and a native C lane
(:mod:`repro.connectivity.native`) that runs whenever its library loads.
Two host-normalized ratios are reported, each from paired trials in one
interpreter, and ``benchmarks/baseline.json`` gates both:

* ``matrix_free_speedup`` = the old stacked-matrix kernel ÷ the NumPy
  lane, named explicitly, so a slower fallback still fails CI;
* ``native_speedup`` = the NumPy lane ÷ the C lane for Prim plus the
  growth-curve sweep (``engine._growth_curve_columns_numpy`` against the
  library's sweep), the work one frame batch costs the engine;
* ``native_walk_speedup`` = the NumPy decode and loop ÷ the C walk,
  which decodes the uniform block itself, for a whole
  :meth:`~repro.mobility.drunkard.DrunkardModel.trajectory` at n = 128
  (the paper's drunkard preset), the one NumPy draw included;
* ``native_waypoint_speedup`` = the Python event loop ÷ the C one for a
  whole :meth:`~repro.mobility.waypoint.RandomWaypointModel.trajectory`
  at n = 128 (the paper's waypoint preset), draws included.

The benchmark fails outright when the C lane does not load, so CI cannot
pass on a silent fallback, and it checks that every lane returns the same
arrays bit for bit (each trajectory's frames too).  The C kernel runs 8 frames per Prim pass on a CPU
with AVX-512F and AVX-512DQ; the smoke batch (341 = 42 * 8 + 5 frames)
runs both its passes, and the summary records the library's lane count.

Two throughput figures are reported and not graded: the C lane's
frames/s (Prim plus sweep, from the ``native_speedup`` trials) and
``native_frames_per_calibration``, the frames it serves in the CPU time
of one calibration loop shaped like perfbench's ``calibrate()``, a
candidate host-normalized throughput.  Timings land in
``BENCH_mst_kernel.json``.
"""

import math
import statistics
import time
from unittest import mock

import numpy as np

from repro.connectivity import native
from repro.connectivity.critical_range import _minimum_spanning_edges_batch_numpy
from repro.geometry.distance import squared_distance_matrix
from repro.geometry.region import Region
from repro.simulation.config import MobilitySpec
from repro.simulation.engine import _growth_curve_columns_numpy

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

#: The trajectories timed for ``native_walk_speedup`` and
#: ``native_waypoint_speedup``: n nodes on the side-n² square of the
#: figures, one trajectory of this many frames.
_WALK_NODES = 128
_WALK_STEPS = 1000

#: Paired trials behind each speedup.  Each trial runs both
#: sides back to back and the metric is the *median of the per-trial
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


def _paper_trajectory(preset, library):
    """One seeded trajectory of the ``preset`` model
    (``MobilitySpec.paper_drunkard`` or ``paper_waypoint``) on
    ``library``'s lane (``None`` is the NumPy one)."""
    side = float(_WALK_NODES**2)
    region = Region.square(side)
    rng = np.random.default_rng(20020623)
    model = preset(side).create()
    model.initialize(region.sample_uniform(_WALK_NODES, rng), region, rng)
    with mock.patch.object(native, "load", return_value=library):
        return model.trajectory(_WALK_STEPS, rng)


def _calibration_seconds() -> float:
    """Median CPU seconds of perfbench's calibration loop, a fixed NumPy
    plus pure-Python workload, timed in this interpreter."""
    points = np.random.default_rng(0).random((32, 128, 2))
    timings = []
    for _ in range(3):
        started = time.thread_time()
        for _ in range(10):
            squared = ((points[:, :, None, :] - points[:, None, :, :]) ** 2).sum(-1)
            squared.argmin(axis=-1)
        total = 0
        for value in range(300_000):
            total += value * value % 7
        timings.append(time.thread_time() - started)
    return statistics.median(timings)


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


def test_kernel_lanes_against_their_references():
    library = native.load()
    assert library is not None, "the native lane did not load (is a C compiler on PATH?)"
    frames = _frames()
    batch, n = frames.shape[0], frames.shape[1]

    numpy_edges = _minimum_spanning_edges_batch_numpy(frames)
    for numpy_column, stacked_column, native_column in zip(
        numpy_edges, _stacked_mst_batch(frames), library.mst_batch(frames)
    ):
        assert np.array_equal(numpy_column, stacked_column)
        assert native_column.dtype == numpy_column.dtype
        assert native_column.tobytes() == numpy_column.tobytes()
    for numpy_column, native_column in zip(
        _growth_curve_columns_numpy(*numpy_edges, n),
        library.growth_curves(*numpy_edges, n),
    ):
        assert native_column.dtype == numpy_column.dtype
        assert native_column.tobytes() == numpy_column.tobytes()

    def numpy_kernel():
        return _minimum_spanning_edges_batch_numpy(frames)

    def stacked():
        return _stacked_mst_batch(frames)

    def numpy_lane():
        return _growth_curve_columns_numpy(*_minimum_spanning_edges_batch_numpy(frames), n)

    def native_lane():
        return library.growth_curves(*library.mst_batch(frames), n)

    def numpy_walk():
        return _paper_trajectory(MobilitySpec.paper_drunkard, None)

    def native_walk():
        return _paper_trajectory(MobilitySpec.paper_drunkard, library)

    def python_waypoint():
        return _paper_trajectory(MobilitySpec.paper_waypoint, None)

    def native_waypoint():
        return _paper_trajectory(MobilitySpec.paper_waypoint, library)

    assert numpy_walk().tobytes() == native_walk().tobytes()
    assert python_waypoint().tobytes() == native_waypoint().tobytes()

    matrix_free, kernel_seconds, stacked_seconds = _paired_ratio(
        numpy_kernel, stacked, _SPEEDUP_TRIALS
    )
    native_speedup, native_lane_seconds, numpy_lane_seconds = _paired_ratio(
        native_lane, numpy_lane, _SPEEDUP_TRIALS
    )
    walk_speedup, native_walk_seconds, numpy_walk_seconds = _paired_ratio(
        native_walk, numpy_walk, _SPEEDUP_TRIALS
    )
    waypoint_speedup, native_waypoint_seconds, python_waypoint_seconds = _paired_ratio(
        native_waypoint, python_waypoint, _SPEEDUP_TRIALS
    )
    native_frames_per_s = batch / native_lane_seconds
    calibration_seconds = _calibration_seconds()

    print(f"\nbatched MST kernel (B={batch}, n={n}):")
    print(f"  NumPy lane   : {kernel_seconds * 1e3:8.2f} ms")
    print(f"  stacked      : {stacked_seconds * 1e3:8.2f} ms  "
          f"(matrix-free speedup {matrix_free:.2f}x)")
    print(f"kernel plus sweep ({library.lanes} lanes):")
    print(f"  NumPy lane   : {numpy_lane_seconds * 1e3:8.2f} ms")
    print(f"  C lane       : {native_lane_seconds * 1e3:8.2f} ms  "
          f"(native speedup {native_speedup:.2f}x)")
    print(f"  C lane       : {native_frames_per_s:10,.0f} frames/s, "
          f"{native_frames_per_s * calibration_seconds:,.0f} per "
          f"{calibration_seconds * 1e3:.0f} ms calibration loop")
    print(f"drunkard trajectory (n={_WALK_NODES}, {_WALK_STEPS} frames):")
    print(f"  NumPy loop   : {numpy_walk_seconds * 1e3:8.2f} ms")
    print(f"  C walk       : {native_walk_seconds * 1e3:8.2f} ms  "
          f"(native walk speedup {walk_speedup:.2f}x)")
    print(f"waypoint trajectory (n={_WALK_NODES}, {_WALK_STEPS} frames):")
    print(f"  Python loop  : {python_waypoint_seconds * 1e3:8.2f} ms")
    print(f"  C loop       : {native_waypoint_seconds * 1e3:8.2f} ms  "
          f"(native waypoint speedup {waypoint_speedup:.2f}x)")

    write_bench_summary(
        "mst_kernel",
        {
            "batch": batch,
            "node_count": n,
            "lanes": library.lanes,
            "kernel_seconds": kernel_seconds,
            "stacked_seconds": stacked_seconds,
            "matrix_free_speedup": matrix_free,
            "numpy_lane_seconds": numpy_lane_seconds,
            "native_lane_seconds": native_lane_seconds,
            "native_speedup": native_speedup,
            "native_frames_per_s": native_frames_per_s,
            "calibration_seconds": calibration_seconds,
            "native_frames_per_calibration": native_frames_per_s * calibration_seconds,
            "walk_node_count": _WALK_NODES,
            "walk_steps": _WALK_STEPS,
            "numpy_walk_seconds": numpy_walk_seconds,
            "native_walk_seconds": native_walk_seconds,
            "native_walk_speedup": walk_speedup,
            "python_waypoint_seconds": python_waypoint_seconds,
            "native_waypoint_seconds": native_waypoint_seconds,
            "native_waypoint_speedup": waypoint_speedup,
        },
    )
