"""Benchmark of the distributed campaign fan-out (serve + HTTP workers).

One campaign of uniform-duration value tasks runs twice through
``serve_campaign`` on a loopback socket: once drained by a single worker
process, once by two.  The per-value work is a fixed sleep, so the
benchmark isolates what the distributed layer itself costs — lease
round-trips, heartbeats, pickled closures over HTTP, result publishing —
from simulation throughput: two workers must overlap the sleeps for
close to a 2x speedup, and anything below 1.4x means the queue/transport
overhead is eating the parallelism.

Results of both runs must be identical (the bit-identity contract of the
distributed transport).  The speedup bar is asserted only on hosts with
at least 4 cores (serve process + two workers + slack); the summary is
emitted regardless.

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default).
"""

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict

from repro.campaigns import CampaignSpec
from repro.distributed import run_worker, serve_campaign
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.store import ResultStore

from _helpers import bench_scale_name, write_bench_summary

BENCH_ID = "bench-fanout-exp"

#: Uniform per-value sleep: long enough to dominate the HTTP round-trips,
#: short enough that the whole benchmark stays in seconds.
TASK_SECONDS = 0.15 if bench_scale_name() == "smoke" else 0.4


@dataclass(frozen=True)
class FanoutMeasure:
    """Picklable measure: one fixed-duration unit of work."""

    seed: int

    def __call__(self, value: float) -> Dict[str, float]:
        time.sleep(TASK_SECONDS)
        return {"metric": value * 2.0 + self.seed}


def _fanout_measure(scale: ExperimentScale) -> FanoutMeasure:
    return FanoutMeasure(seed=scale.seed or 0)


register_experiment(
    Experiment(
        identifier=BENCH_ID,
        title="Synthetic fan-out experiment",
        description="Uniform-duration tasks for the distributed benchmark.",
        paper_reference="(benchmark only)",
        parameter_name="side",
        sweep_measure=_fanout_measure,
    )
)


def _spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "bench-fanout",
            "experiments": [BENCH_ID],
            "scale": "smoke",
            "overrides": {
                "sides": [10.0, 20.0, 30.0, 40.0],
                "steps": 1,
                "iterations": 1,
                "stationary_iterations": 1,
            },
            # 2 scenarios x 4 values = 8 uniform tasks to fan out.
            "matrix": {"seed": [1, 2]},
        }
    )


def _worker_main(url):
    # Short poll + bounded HTTP timeout: forked workers inherit the
    # server's listening socket, so a poll after the serve ends must time
    # out instead of hanging in the dead backlog.
    run_worker(url, poll_interval=0.02, timeout=10.0)


def _fan_out(spec, store, worker_count):
    """Serve ``spec`` drained by ``worker_count`` worker processes.

    Times the serve itself only: a straggling worker's exit (its last
    poll can race the server shutdown and eat its HTTP timeout in the
    fork-inherited dead backlog) is campaign-external teardown and is
    joined outside the measured window.
    """
    workers = []

    def on_ready(url):
        for _ in range(worker_count):
            process = multiprocessing.get_context("fork").Process(
                target=_worker_main, args=(url,)
            )
            process.start()
            workers.append(process)

    start = time.perf_counter()
    try:
        result = serve_campaign(
            spec,
            store,
            max_retries=2,
            retry_backoff=0.05,
            telemetry_enabled=False,
            on_ready=on_ready,
        )
        return result, time.perf_counter() - start
    finally:
        for process in workers:
            process.join(timeout=60.0)
            if process.is_alive():
                process.kill()


def test_distributed_fanout_scaling(benchmark, tmp_path):
    """Two loopback workers vs one on uniform-duration tasks."""
    spec = _spec()
    task_count = 8

    single, single_seconds = benchmark.pedantic(
        lambda: _fan_out(spec, ResultStore(tmp_path / "one"), 1),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    double, double_seconds = _fan_out(
        spec, ResultStore(tmp_path / "two"), 2
    )

    work_seconds = task_count * TASK_SECONDS
    speedup = single_seconds / double_seconds
    print()
    print(f"distributed fan-out benchmark ({bench_scale_name()} scale)")
    print(f"  {task_count} tasks x {TASK_SECONDS:.2f}s over loopback HTTP")
    print(f"  {'workers':10s} | {'seconds':>8s} | speedup")
    print(f"  {'1':10s} | {single_seconds:8.3f} | 1.00x")
    print(f"  {'2':10s} | {double_seconds:8.3f} | {speedup:.2f}x")
    print(f"  (pure task work: {work_seconds:.2f}s; ideal 2-worker "
          f"wall: {work_seconds / 2:.2f}s)")

    # Bit-identity across fan-out widths, scenario by scenario.
    assert double.sweeps.keys() == single.sweeps.keys()
    for scenario_id, sweep in double.sweeps.items():
        assert sweep.rows == single.sweeps[scenario_id].rows, (
            f"2-worker fan-out changed {scenario_id}"
        )
    assert single.computed_values == double.computed_values == task_count

    # The distributed layer's own tax on a single worker: wall beyond
    # the pure sleep time, per task (lease + payload + publish loop).
    overhead_per_task = max(0.0, single_seconds - work_seconds) / task_count
    write_bench_summary(
        "distributed_fanout",
        {
            "tasks": task_count,
            "task_seconds": TASK_SECONDS,
            "one_worker_seconds": single_seconds,
            "two_worker_seconds": double_seconds,
            "two_worker_speedup": speedup,
            "overhead_per_task_seconds": overhead_per_task,
        },
    )

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 1.4, (
            f"2-worker loopback fan-out only {speedup:.2f}x over one worker "
            f"({double_seconds:.3f}s vs {single_seconds:.3f}s)"
        )
