"""Benchmarks of the sweep-level process fan-out and the columnar payloads.

Two questions are answered mechanically here:

* how does ``sweep_parameter(..., workers=...)`` scale the wall-clock time
  of a real figure sweep (and is the parallel sweep still exactly equal to
  the serial one);
* how much smaller does the columnar result container
  (:class:`repro.simulation.results.FrameStatisticsColumns`) pickle than
  the per-frame object list it replaced — the payload that crosses the
  worker-process boundary and the store codecs.

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default).
Speedup assertions only engage when the machine actually has multiple
cores — on a single-core box the parallel backend still runs (and must
still be equal), it just cannot be faster.
"""

import os
import pickle
import time

import pytest

from repro.experiments.figures import SystemSizeMeasure
from repro.experiments.registry import ExperimentScale
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.results import FrameStatistics
from repro.simulation.runner import collect_frame_statistics
from repro.simulation.sweep import sweep_parameter

from _helpers import bench_scale_name, write_bench_summary

try:
    # Respect cgroup/affinity limits (CI quotas), not just the host size.
    CPU_COUNT = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without sched_getaffinity
    CPU_COUNT = os.cpu_count() or 1
#: Sweep-level worker counts whose wall-clock times are reported.
WORKER_COUNTS = (1, 2, 4)


def _sweep_workload():
    """A system-size sweep heavy enough for fan-out to matter."""
    if bench_scale_name() == "smoke":
        sides = (576.0, 784.0, 1024.0, 1296.0)
        # Heavy enough that per-side work dwarfs worker-pool startup, so
        # the 1.5x assertion is robust on a 4-core machine.
        steps, iterations = 400, 5
    else:
        sides = (1024.0, 2304.0, 4096.0, 6400.0)
        steps, iterations = 150, 5
    scale = ExperimentScale(
        name="smoke",
        sides=sides,
        steps=steps,
        iterations=iterations,
        stationary_iterations=40,
        parameter_points=3,
        seed=20020623,
    )
    return sides, SystemSizeMeasure(model="drunkard", scale=scale)


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def test_sweep_scaling(benchmark):
    """Wall-clock speedup of sweep workers 2/4 over the serial sweep."""
    sides, measure = _sweep_workload()
    serial, serial_seconds = _timed(
        lambda: sweep_parameter("l", sides, measure)
    )
    rows = [("1", serial_seconds, 1.0)]
    for workers in WORKER_COUNTS[1:]:
        parallel, seconds = _timed(
            lambda: sweep_parameter("l", sides, measure, workers=workers)
        )
        assert parallel.rows == serial.rows, f"workers={workers} changed the sweep"
        rows.append((str(workers), seconds, serial_seconds / seconds))
    print(f"\nsweep_parameter scaling ({len(sides)} sides, "
          f"model=drunkard, {CPU_COUNT} cores):")
    for workers, seconds, speedup in rows:
        print(f"  workers={workers:>2}: {seconds:8.3f}s  speedup {speedup:4.2f}x")
    write_bench_summary(
        "sweep_scaling",
        {
            "sides": len(sides),
            "cpu_count": CPU_COUNT,
            "seconds_by_workers": {
                workers: seconds for workers, seconds, _ in rows
            },
            "best_speedup": max(speedup for _, _, speedup in rows),
            "speedup_bar_enforced": CPU_COUNT >= 4,
        },
    )
    if CPU_COUNT >= 4:
        best = max(speedup for _, _, speedup in rows)
        assert best >= 1.5, (
            f"expected >= 1.5x sweep speedup on {CPU_COUNT} cores, got {best:.2f}x"
        )
    # Report the serial sweep under pytest-benchmark for history tracking.
    benchmark.pedantic(
        sweep_parameter, args=("l", sides, measure),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def _payload_config() -> SimulationConfig:
    steps = 2_000 if bench_scale_name() == "smoke" else 10_000
    side = 1024.0
    return SimulationConfig(
        network=NetworkConfig(node_count=32, side=side, dimension=2),
        mobility=MobilitySpec.paper_drunkard(side),
        steps=steps,
        iterations=1,
        seed=20020623,
    )


def test_pickled_payload_sizes():
    """The columnar container must beat the object list it replaced.

    The frame statistics keep their float64 breakpoint ranges bit-exact,
    so their payload shrinks by the per-object overhead only (the number
    of pickled *objects* drops from one per step to a handful of arrays).
    """
    config = _payload_config()

    statistics = collect_frame_statistics(config)[0]
    frame_objects = [
        FrameStatistics(frame.critical_range, frame.component_curve, frame.node_count)
        for frame in statistics
    ]
    columnar = len(pickle.dumps(statistics))
    objects = len(pickle.dumps(frame_objects))
    frame_ratio = objects / columnar
    print(f"\nframe-statistics payload ({config.steps} steps): "
          f"objects {objects / 1024:.1f} KiB, columnar {columnar / 1024:.1f} KiB, "
          f"{frame_ratio:.1f}x smaller")
    assert frame_ratio >= 1.3, (
        f"expected >= 1.3x smaller frame-statistics payload, got {frame_ratio:.1f}x"
    )
    assert pickle.loads(pickle.dumps(statistics)) == statistics
