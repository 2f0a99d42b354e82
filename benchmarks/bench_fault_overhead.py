"""Benchmark of the supervision layer's overhead and recovery cost.

PR 7 routed every parallel gather through :func:`repro.supervision.
run_supervised`.  The design claim is "supervision costs nothing until
something fails": with the default policy the loop blocks in exactly one
``wait`` per batch of replies, and arming retries/leases only adds
deadline bookkeeping.  This benchmark holds the claim to numbers:

* **clean, unsupervised** — a campaign under the scheduler with the
  default fail-fast policy (the pre-PR-7 behaviour);
* **clean, supervised** — the same campaign with retries, a task lease
  and backoff armed (``max_retries=2``, ``task_timeout=60``): must be
  within **3%** of the unsupervised run;
* **1-kill recovery** — the same supervised campaign with one injected
  worker SIGKILL (:mod:`repro.faults`): the dead worker is joined and
  replaced, staging swept and only its task retried — and the whole run
  must still finish within **1.5x** of the clean supervised run, with
  bit-identical results.

The per-value work is a fixed sleep, which makes the bars meaningful on
any machine: wall-clock is dominated by identical sleeping in every mode,
so the measured difference *is* the harness overhead.  Every mode runs
``ROUNDS`` times against a fresh store and the minimum is compared
(pool-startup jitter hits all modes alike).

The workload size follows ``REPRO_BENCH_SCALE`` (``smoke`` by default).
"""

import time
from dataclasses import dataclass
from typing import Dict

from repro import faults
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.faults import FaultSpec
from repro.store import ResultStore

from _helpers import bench_scale_name, write_bench_summary

BENCH_ID = "bench-fault-exp"

#: Per-value sleep: long enough that 8 tasks of it dominate pool startup.
BASE_SECONDS = 0.15 if bench_scale_name() == "smoke" else 0.3

ROUNDS = 3
OVERHEAD_BAR = 0.03
RECOVERY_BAR = 1.5


@dataclass(frozen=True)
class FixedSleepMeasure:
    """Picklable measure: constant-duration work per value."""

    seed: int

    def __call__(self, value: float) -> Dict[str, float]:
        time.sleep(BASE_SECONDS)
        return {"metric": value * 2.0 + self.seed}


def _fixed_sleep_measure(scale: ExperimentScale) -> FixedSleepMeasure:
    return FixedSleepMeasure(seed=scale.seed or 0)


register_experiment(
    Experiment(
        identifier=BENCH_ID,
        title="Synthetic fixed-sleep experiment",
        description="Constant-duration tasks for the fault-overhead benchmark.",
        paper_reference="(benchmark only)",
        parameter_name="side",
        sweep_measure=_fixed_sleep_measure,
    )
)


def _spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "name": "bench-faults",
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
    runner = CampaignRunner(
        _spec(), ResultStore(tmp_path / label), total_workers=2, **kwargs
    )
    start = time.perf_counter()
    result = runner.run()
    return result, time.perf_counter() - start


def test_fault_tolerance_overhead(benchmark, tmp_path):
    """Clean supervision < 3% overhead; 1-kill recovery <= 1.5x clean."""
    supervision = dict(max_retries=2, task_timeout=60.0, retry_backoff=0.05)

    plain_seconds = []
    supervised_seconds = []
    recovery_seconds = []
    reference = None
    for round_index in range(ROUNDS):
        # Interleaved rounds: drift (page cache, CPU frequency) hits every
        # mode equally instead of biasing whichever ran last.
        result, seconds = _run_round(tmp_path, f"plain-{round_index}")
        plain_seconds.append(seconds)
        reference = result

        result, seconds = _run_round(
            tmp_path, f"supervised-{round_index}", **supervision
        )
        supervised_seconds.append(seconds)
        for scenario_id, sweep in result.sweeps.items():
            assert sweep.rows == reference.sweeps[scenario_id].rows

        with faults.active(
            [FaultSpec(site="measure", action="kill", at=3)],
            tmp_path / f"faultstate-{round_index}",
        ):
            result, seconds = _run_round(
                tmp_path, f"recovery-{round_index}", **supervision
            )
        recovery_seconds.append(seconds)
        # The injected SIGKILL really fired, and cost exactly one attempt:
        # 8 value tasks plus the killed one hit the measure site, so the
        # recovery bar measures one worker death and nothing else re-ran.
        hits = (tmp_path / f"faultstate-{round_index}" / "hits-0").read_text()
        assert int(hits) == 9, hits
        assert result.quarantined_tasks == 0
        for scenario_id, sweep in result.sweeps.items():
            assert sweep.rows == reference.sweeps[scenario_id].rows

    # One representative timed run for pytest-benchmark's own table.
    benchmark.pedantic(
        lambda: _run_round(tmp_path, "bench", **supervision),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    plain = min(plain_seconds)
    supervised = min(supervised_seconds)
    recovery = min(recovery_seconds)
    overhead = supervised / plain - 1.0
    ratio = recovery / supervised

    print()
    print(f"fault-tolerance overhead benchmark ({bench_scale_name()} scale)")
    print(f"  2 scenarios x 4 values, {BASE_SECONDS:.2f}s/task, budget 2, "
          f"min of {ROUNDS} rounds")
    print(f"  {'mode':24s} | seconds")
    print(f"  {'clean, unsupervised':24s} | {plain:7.3f}")
    print(f"  {'clean, supervised':24s} | {supervised:7.3f} "
          f"({overhead * 100.0:+.2f}%)")
    print(f"  {'1 worker kill, recovered':24s} | {recovery:7.3f} "
          f"({ratio:.2f}x clean)")

    write_bench_summary(
        "fault_overhead",
        {
            "rounds": ROUNDS,
            "task_seconds": BASE_SECONDS,
            "clean_seconds": plain,
            "supervised_seconds": supervised,
            "overhead_fraction": overhead,
            "kill_recovery_seconds": recovery,
            "recovery_ratio": ratio,
        },
    )

    assert overhead < OVERHEAD_BAR, (
        f"armed supervision costs {overhead * 100.0:.2f}% on a clean run "
        f"({supervised:.3f}s vs {plain:.3f}s); bar is "
        f"{OVERHEAD_BAR * 100.0:.0f}%"
    )
    assert ratio <= RECOVERY_BAR, (
        f"recovering from one worker kill took {ratio:.2f}x the clean run "
        f"({recovery:.3f}s vs {supervised:.3f}s); bar is {RECOVERY_BAR}x"
    )
