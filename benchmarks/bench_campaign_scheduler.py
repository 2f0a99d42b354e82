"""Benchmark of the campaign scheduler's worker-budget scaling.

Four *heterogeneous* scenarios (wall-clock dominated by per-value work
whose duration differs 4x between the shortest and the longest scenario)
run at budgets 1 (the default), 2 and 4.  At budget 1 one worker measures
every value in turn, so total wall-clock is the sum of all scenarios.
With more budget the round-robin task queue keeps every scenario in
flight and a worker freed by a short scenario takes the next value of a
long one, so wall-clock approaches the longest scenario, not the sum.

The per-value work is a sleep (duration keyed to the scenario), which
makes the benchmark meaningful on any machine: scenario concurrency is
about *overlapping* independent work, and a single-core box overlaps
sleeps exactly like a 64-core box overlaps simulations.  The acceptance
bar is budget 4 at least 1.5x faster than the default budget; results
must be identical across all three runs.

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

from _helpers import bench_scale_name, write_bench_summary

BENCH_ID = "bench-sleep-exp"

#: Per-value sleep at smoke scale; scenario ``seed`` scales it, so the
#: four scenarios (seeds 1..4) are 4x apart in duration.
BASE_SECONDS = 0.05 if bench_scale_name() == "smoke" else 0.15


@dataclass(frozen=True)
class SleepMeasure:
    """Picklable measure: sleep proportional to the scenario seed."""

    seed: int

    def __call__(self, value: float) -> Dict[str, float]:
        time.sleep(BASE_SECONDS * self.seed)
        return {"metric": value * 2.0 + self.seed}


def _sleep_measure(scale: ExperimentScale) -> SleepMeasure:
    return SleepMeasure(seed=scale.seed or 0)


register_experiment(
    Experiment(
        identifier=BENCH_ID,
        title="Synthetic sleeping experiment",
        description="Heterogeneous-duration scenarios for the scheduler benchmark.",
        paper_reference="(benchmark only)",
        parameter_name="side",
        sweep_measure=_sleep_measure,
    )
)


def _spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "bench-scheduler",
            "experiments": [BENCH_ID],
            "scale": "smoke",
            "overrides": {
                "sides": [10.0, 20.0, 30.0],
                "steps": 1,
                "iterations": 1,
                "stationary_iterations": 1,
            },
            # Four heterogeneous scenarios: durations 1x, 2x, 3x, 4x.
            "matrix": {"seed": [1, 2, 3, 4]},
        }
    )


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def test_campaign_scheduler_scaling(benchmark, tmp_path):
    """Wall-clock vs worker budget for four heterogeneous scenarios."""
    spec = _spec()

    baseline, baseline_seconds = _timed(
        lambda: benchmark.pedantic(
            CampaignRunner(spec, ResultStore(tmp_path / "default")).run,
            rounds=1,
            iterations=1,
            warmup_rounds=0,
        )
    )
    timings = {1: baseline_seconds}
    results = {1: baseline}
    for budget in (2, 4):
        runner = CampaignRunner(
            spec, ResultStore(tmp_path / f"budget-{budget}"), total_workers=budget
        )
        results[budget], timings[budget] = _timed(runner.run)

    ideal = baseline_seconds / 4  # perfectly-overlapped four scenarios
    print()
    print(f"campaign scheduler benchmark ({bench_scale_name()} scale)")
    print(f"  4 heterogeneous scenarios x {len(spec.base_scale().sides)} values")
    print(f"  {'budget':8s} | {'seconds':>8s} | speedup vs budget 1")
    for budget, seconds in timings.items():
        print(
            f"  W={budget:<6d} | {seconds:8.3f} | "
            f"{baseline_seconds / seconds:.2f}x"
        )
    print(f"  (ideal overlap at W=4: {ideal:.3f}s)")

    # Identical results at every budget, scenario by scenario, row by row.
    for budget, result in results.items():
        assert result.sweeps.keys() == baseline.sweeps.keys()
        for scenario_id, sweep in result.sweeps.items():
            assert sweep.rows == baseline.sweeps[scenario_id].rows, (
                f"budget {budget} changed {scenario_id}"
            )

    write_bench_summary(
        "campaign_scheduler",
        {
            "scenarios": 4,
            "values_per_scenario": len(spec.base_scale().sides),
            "seconds_by_budget": {
                budget: seconds for budget, seconds in timings.items()
            },
            "speedup_budget_4": baseline_seconds / timings[4],
        },
    )

    # Freed workers take the values of still-running scenarios: budget 4
    # must beat the default budget decisively.
    speedup = baseline_seconds / timings[4]
    assert speedup >= 1.5, (
        f"scheduler at budget 4 only {speedup:.2f}x over budget 1 "
        f"({timings[4]:.3f}s vs {baseline_seconds:.3f}s)"
    )
