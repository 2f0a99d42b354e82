"""Benchmark of the vectorized frame reduction.

How much faster is the batched MST-sweep frame reduction
(:func:`repro.simulation.engine.frame_statistics_columns`) than the seed's
dense per-edge sweep (:func:`repro.simulation.engine.
component_growth_curve_reference`), and are the curves identical?

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default: 64
frames of n=32; the ``default``/``paper`` presets use n=128).
"""

import time

import numpy as np

from repro.simulation.engine import (
    component_growth_curve_reference,
    frame_statistics_columns,
)

from _helpers import bench_scale_name


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def test_vectorized_frame_statistics_micro(benchmark):
    """Batched MST-sweep reduction vs the seed's dense per-edge sweep."""
    node_count = 32 if bench_scale_name() == "smoke" else 128
    frames = np.random.default_rng(3).uniform(
        0.0, float(node_count * node_count), size=(64, node_count, 2)
    )

    def seed_reduction():
        return [component_growth_curve_reference(frame) for frame in frames]

    reference, reference_seconds = _timed(seed_reduction)
    batched = benchmark(lambda: list(frame_statistics_columns(frames)))
    assert [statistics.component_curve for statistics in batched] == reference
    batched_seconds = benchmark.stats.stats.mean
    print(f"\nframe reduction (n={node_count}, {len(frames)} frames): "
          f"seed {reference_seconds / len(frames) * 1e3:.3f} ms/frame, "
          f"vectorized {batched_seconds / len(frames) * 1e3:.3f} ms/frame, "
          f"speedup {reference_seconds / batched_seconds:.1f}x")
    assert batched_seconds < reference_seconds, (
        "vectorized reduction should beat the dense per-edge sweep"
    )
