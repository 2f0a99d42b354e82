"""Cross-process trace acceptance tests.

The PR's headline claim: a campaign run with ``--total-workers 4``
produces a JSONL trace from which the full campaign → scenario → task →
iteration hierarchy can be reconstructed *across process boundaries* —
worker-side spans parent under scheduler-side spans through the
picklable context shims.  Plus the crash story: a SIGKILLed worker may
lose its unflushed tail but never corrupts the sink (every surviving
line is valid JSON) and the run report still aggregates the survivors.
Finally the Chrome ``trace_event`` export loads as schema-valid JSON.
"""

import json
from dataclasses import dataclass
from typing import Dict

import pytest

from repro import faults
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.faults import FaultSpec
from repro.experiments.registry import (
    _REGISTRY,
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.store import ResultStore
from repro.telemetry import report
from repro.telemetry.tracing import TRACE_FILE


def tree_spec():
    """One fig2 scenario sized so iterations outnumber workers."""
    return CampaignSpec.from_dict(
        {
            "name": "tree",
            "experiments": ["fig2"],
            "scale": "smoke",
            "overrides": {
                "sides": [256.0],
                "steps": 25,
                "iterations": 2,
                "stationary_iterations": 30,
            },
            "matrix": {"seed": [1]},
        }
    )


def run_traced_campaign(tmp_path, total_workers):
    store = ResultStore(tmp_path / "store")
    result = CampaignRunner(
        tree_spec(), store, total_workers=total_workers
    ).run()
    run_dir = report.latest_run_dir(store.root / "telemetry")
    assert run_dir is not None
    return result, run_dir


class TestSpanTree:
    def test_four_worker_campaign_reconstructs_full_hierarchy(self, tmp_path):
        result, run_dir = run_traced_campaign(tmp_path, total_workers=4)
        assert result.sweeps

        # Every line of the sink is valid JSON (append-only, full lines).
        lines = (
            (run_dir / TRACE_FILE).read_text(encoding="utf-8").splitlines()
        )
        records = [json.loads(line) for line in lines if line.strip()]
        spans = [r for r in records if r["type"] == "span"]

        # One trace binds every span from every process.
        manifest = json.loads(
            (run_dir / "run.json").read_text(encoding="utf-8")
        )
        assert {s["trace"] for s in spans} == {manifest["trace_id"]}

        # The hierarchy rebuilds with no orphans: every parent id exists.
        by_id = {s["span"]: s for s in spans}
        assert len(by_id) == len(spans)  # ids unique
        for record in spans:
            if record["parent"] is not None:
                assert record["parent"] in by_id, record

        def parent_name(record):
            return (
                by_id[record["parent"]]["name"]
                if record["parent"] is not None
                else None
            )

        names = {}
        for record in spans:
            names.setdefault(record["name"], []).append(record)
        assert set(names) >= {
            "campaign", "scenario", "task", "iteration", "stationary"
        }

        (campaign,) = names["campaign"]
        assert campaign["parent"] is None
        for scenario in names["scenario"]:
            assert parent_name(scenario) == "campaign"
        for task in names["task"]:
            assert parent_name(task) == "scenario"
        iterations = names["iteration"]
        # 2 mobile iterations; the 30 stationary placements share 1 span.
        assert len(iterations) == 2
        (stationary,) = names["stationary"]
        assert stationary["attrs"]["placements"] == 30
        for iteration in iterations + [stationary]:
            assert parent_name(iteration) == "task"

        # Spans genuinely crossed process boundaries: the scheduler's
        # spans and the workers' iteration spans carry different pids.
        assert {campaign["pid"]} != {i["pid"] for i in iterations}

        # Wall-clock containment: each iteration fits inside its task.
        for iteration in iterations:
            task = by_id[iteration["parent"]]
            assert iteration["start"] >= task["start"] - 0.5
            assert (
                iteration["start"] + iteration["wall"]
                <= task["start"] + task["wall"] + 0.5
            )

    def test_chrome_trace_export_is_schema_valid(self, tmp_path):
        _, run_dir = run_traced_campaign(tmp_path, total_workers=2)
        document = json.loads(
            json.dumps(report.chrome_trace(run_dir), default=str)
        )
        events = document["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"X", "i"}
        for event in events:
            assert isinstance(e_name := event["name"], str) and e_name
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
            else:
                assert event["s"] == "p"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} >= {"campaign", "scenario"}


# --------------------------------------------------------------------------- #
# Crash tolerance
# --------------------------------------------------------------------------- #
CRASH_ID = "trace-crash-exp"


@dataclass(frozen=True)
class CrashMeasure:
    seed: int

    def __call__(self, value: float) -> Dict[str, float]:
        return {"metric": value * 2.0 + self.seed}


def _crash_measure(scale: ExperimentScale) -> CrashMeasure:
    return CrashMeasure(seed=scale.seed or 0)


@pytest.fixture
def crash_experiment():
    experiment = register_experiment(
        Experiment(
            identifier=CRASH_ID,
            title="Crash experiment",
            description="Cheap sweep for the SIGKILL trace test.",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_crash_measure,
        )
    )
    yield experiment
    _REGISTRY.pop(CRASH_ID, None)


class TestCrashTolerance:
    def test_sigkilled_worker_leaves_trace_parseable(
        self, crash_experiment, tmp_path
    ):
        """A worker SIGKILLed mid-task loses only its unflushed spans:
        every line still on disk parses, and the sealed report aggregates
        the surviving processes' spans and the campaign outcome."""
        spec = CampaignSpec.from_dict(
            {
                "name": "crash",
                "experiments": [CRASH_ID],
                "scale": "smoke",
                "overrides": {
                    "sides": [10.0, 20.0, 30.0],
                    "steps": 1,
                    "iterations": 1,
                    "stationary_iterations": 1,
                },
                "matrix": {"seed": [1, 2]},
            }
        )
        store = ResultStore(tmp_path / "store")
        specs = [FaultSpec(site="measure", action="kill", at=2)]
        with faults.active(specs, tmp_path / "faultstate"):
            result = CampaignRunner(
                spec, store, total_workers=2, max_retries=2
            ).run()
        assert result.quarantined_tasks == 0
        assert set(result.sweeps) == {
            scenario.scenario_id for scenario in spec.scenarios()
        }

        run_dir = report.latest_run_dir(store.root / "telemetry")
        assert run_dir is not None
        for line in (
            (run_dir / TRACE_FILE).read_text(encoding="utf-8").splitlines()
        ):
            if line.strip():
                json.loads(line)  # every surviving line is valid JSON
        trace = report.read_trace(run_dir)
        assert trace["bad_lines"] == 0
        assert trace["spans"]

        built = report.load_or_build_report(run_dir)
        assert built["spans"]["count"] == len(trace["spans"])
        assert built["outcome"]["quarantined_tasks"] == 0
        assert sorted(built["outcome"]["scenarios"]) == sorted(
            result.sweeps
        )
        # Supervision metrics recorded the worker respawn and the retry.
        merged = built["metrics"]
        assert merged.get("supervision.retries", {}).get("value", 0) >= 1
