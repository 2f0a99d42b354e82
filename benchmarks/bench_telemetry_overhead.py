"""Benchmark of the telemetry spine's overhead on a scheduled campaign.

PR 8 threaded :mod:`repro.telemetry` spans through every execution layer
(campaign → scenario → task → iteration) and flushes them from every
worker process into one per-run JSONL sink.  The design claim is that
observability is a rounding error: span bookkeeping is a dataclass and a
clock read, flushes are buffered (one ``O_APPEND`` write per 128
records), and a disabled tracer short-circuits to no-ops.  This
benchmark holds the claim to a number:

* **untraced** — a campaign under the scheduler with ``telemetry=False``
  (the pre-PR-8 behaviour);
* **traced** — the identical campaign with the default telemetry on:
  must be within **2%** of the untraced run, and the recorded trace must
  actually contain the campaign's task spans (the cheap run is cheap
  because tracing is cheap, not because it silently didn't happen).

The per-value work is a fixed sleep, which makes the bar meaningful on
any machine: wall-clock is dominated by identical sleeping in both
modes, so the measured difference *is* the tracer overhead.  Both modes
run ``ROUNDS`` times, interleaved, against fresh stores and the minimum
is compared (pool-startup jitter hits both modes alike).

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default).
"""

import time
from dataclasses import dataclass
from typing import Dict

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.store import ResultStore
from repro.telemetry import report as telemetry_report

from _helpers import bench_scale_name, write_bench_summary

BENCH_ID = "bench-telemetry-exp"

#: Per-value sleep: long enough that 8 tasks of it dominate pool startup
#: (and that the 2% bar is comfortably above scheduler timing noise).
BASE_SECONDS = 0.25 if bench_scale_name() == "smoke" else 0.4

ROUNDS = 3
OVERHEAD_BAR = 0.02


@dataclass(frozen=True)
class FixedSleepMeasure:
    """Picklable measure: constant-duration work per value."""

    seed: int

    def __call__(self, value: float) -> Dict[str, float]:
        time.sleep(BASE_SECONDS)
        return {"metric": value * 3.0 + self.seed}


def _fixed_sleep_measure(scale: ExperimentScale) -> FixedSleepMeasure:
    return FixedSleepMeasure(seed=scale.seed or 0)


register_experiment(
    Experiment(
        identifier=BENCH_ID,
        title="Synthetic fixed-sleep experiment",
        description="Constant-duration tasks for the telemetry-overhead benchmark.",
        paper_reference="(benchmark only)",
        parameter_name="side",
        sweep_measure=_fixed_sleep_measure,
    )
)


def _spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "bench-telemetry",
            "experiments": [BENCH_ID],
            "scale": "smoke",
            "overrides": {
                "sides": [10.0, 20.0, 30.0, 40.0],
                "steps": 1,
                "iterations": 1,
                "stationary_iterations": 1,
            },
            "matrix": {"seed": [1, 2]},
        }
    )


def _run_round(tmp_path, label, **kwargs):
    store = ResultStore(tmp_path / label)
    runner = CampaignRunner(_spec(), store, total_workers=2, **kwargs)
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start, store


def test_telemetry_overhead(benchmark, tmp_path):
    """Tracing a scheduled campaign costs < 2% wall clock."""
    untraced_seconds = []
    traced_seconds = []
    reference = None
    last_store = None
    for round_index in range(ROUNDS):
        # Interleaved rounds: drift (page cache, CPU frequency) hits both
        # modes equally instead of biasing whichever ran last.
        result, seconds, _ = _run_round(
            tmp_path, f"untraced-{round_index}", telemetry=False
        )
        untraced_seconds.append(seconds)
        reference = result

        result, seconds, store = _run_round(tmp_path, f"traced-{round_index}")
        traced_seconds.append(seconds)
        last_store = store
        for scenario_id, sweep in result.sweeps.items():
            assert sweep.rows == reference.sweeps[scenario_id].rows

    # The traced run really recorded the campaign: the trace holds a span
    # per task and a sealed run report — the overhead number measures a
    # working tracer, not a disabled one.
    run_dir = telemetry_report.latest_run_dir(last_store.root / "telemetry")
    assert run_dir is not None
    trace = telemetry_report.read_trace(run_dir)
    task_spans = [s for s in trace["spans"] if s["name"] == "task"]
    assert len(task_spans) == 8, len(task_spans)
    assert trace["bad_lines"] == 0

    # One representative timed run for pytest-benchmark's own table.
    benchmark.pedantic(
        lambda: _run_round(tmp_path, "bench"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    untraced = min(untraced_seconds)
    traced = min(traced_seconds)
    overhead = traced / untraced - 1.0

    print()
    print(f"telemetry overhead benchmark ({bench_scale_name()} scale)")
    print(f"  2 scenarios x 4 values, {BASE_SECONDS:.2f}s/task, budget 2, "
          f"min of {ROUNDS} rounds")
    print(f"  {'mode':12s} | seconds")
    print(f"  {'untraced':12s} | {untraced:7.3f}")
    print(f"  {'traced':12s} | {traced:7.3f} ({overhead * 100.0:+.2f}%)")

    write_bench_summary(
        "telemetry_overhead",
        {
            "rounds": ROUNDS,
            "task_seconds": BASE_SECONDS,
            "untraced_seconds": untraced,
            "traced_seconds": traced,
            "overhead_fraction": overhead,
            "spans_recorded": len(trace["spans"]),
        },
    )

    assert overhead < OVERHEAD_BAR, (
        f"telemetry costs {overhead * 100.0:.2f}% on a scheduled campaign "
        f"({traced:.3f}s vs {untraced:.3f}s); bar is "
        f"{OVERHEAD_BAR * 100.0:.0f}%"
    )
