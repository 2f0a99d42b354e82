"""Campaign semantics tests: caching, kill-and-resume, corruption recovery.

A synthetic experiment with an instrumented measure is registered for the
duration of each test, so the tests can assert *exactly* how many measure
calls a campaign performed — the acceptance criteria are "zero new
simulation calls on a warm re-run" and "a killed campaign resumes where
it stopped with results equal to an uninterrupted run".  Measures run in
the scheduler's worker processes, so every call leaves a marker file and
the tests count markers.

The determinism matrix at the bottom runs a real multi-iteration
simulation experiment through every budget x kill granularity the
campaign layer offers and asserts bit-identical results against
``Experiment.run`` — with filesystem markers counting every measure call
and every simulated iteration, so "zero recomputation" is asserted
literally.
"""

import glob
import os
import uuid
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np
import pytest

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.campaigns.runner import scenario_sweep_key
from repro.experiments.registry import (
    _REGISTRY,
    Experiment,
    ExperimentScale,
    get_experiment,
    register_experiment,
)
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.runner import collect_frame_statistics
from repro.simulation.sweep import SweepCheckpoint, iteration_checkpoint_for
from repro.store import ResultStore

EXPERIMENT_ID = "campaign-test-exp"
SIBLING_ID = "campaign-test-exp-sibling"


def shared_payload(scale: ExperimentScale):
    """Cache payload shared by the counting experiment and its sibling."""
    from repro.store import scale_payload

    return {"computation": "counting-shared", "scale": scale_payload(scale)}


def _mark(calls_dir, prefix):
    with open(os.path.join(calls_dir, f"{prefix}-{uuid.uuid4().hex}"), "w"):
        pass


def _count(calls_dir, prefix):
    return len(glob.glob(os.path.join(calls_dir, f"{prefix}-*")))


#: Mutable module config read when the counting measure is *built* (in
#: the parent; the built measure is pickled to the workers), so a test
#: can arm a simulated kill at any value under any start method.
COUNTING = {"calls_dir": None}
FAIL_AT = {"value": None}


@dataclass(frozen=True)
class CountingMeasure:
    """Leaves one ``count-*`` marker per successful call."""

    seed: int
    calls_dir: str
    fail_at: Optional[float] = None

    def __call__(self, value: float) -> Dict[str, float]:
        if self.fail_at is not None and value >= self.fail_at:
            raise RuntimeError(f"simulated kill at value {value}")
        _mark(self.calls_dir, "count")
        return {"metric": value * 2.0 + self.seed, "seed": float(self.seed)}


def _counting_measure(scale: ExperimentScale) -> CountingMeasure:
    return CountingMeasure(
        seed=scale.seed or 0,
        calls_dir=COUNTING["calls_dir"],
        fail_at=FAIL_AT["value"],
    )


def calls() -> int:
    """Counting-measure calls so far, across every process."""
    return _count(COUNTING["calls_dir"], "count")


def counting(identifier, **fields) -> Experiment:
    return Experiment(
        identifier=identifier,
        title="Synthetic counting experiment",
        description="Counts measure calls for campaign-semantics tests.",
        paper_reference="(test only)",
        sweep_measure=_counting_measure,
        parameter_name="side",
        **fields,
    )


@pytest.fixture
def counting_experiment(tmp_path):
    calls_dir = tmp_path / "counting-calls"
    calls_dir.mkdir()
    COUNTING["calls_dir"] = str(calls_dir)
    FAIL_AT["value"] = None
    experiment = register_experiment(counting(EXPERIMENT_ID))
    yield experiment
    _REGISTRY.pop(EXPERIMENT_ID, None)
    FAIL_AT["value"] = None


def share_payload(monkeypatch):
    """Make the counting experiment and a sibling share one computation."""
    for identifier in (EXPERIMENT_ID, SIBLING_ID):
        monkeypatch.setitem(
            _REGISTRY,
            identifier,
            counting(identifier, cache_payload=shared_payload),
        )


def make_spec(**overrides):
    document = {
        "name": "semantics",
        "experiments": [EXPERIMENT_ID],
        "scale": "smoke",
        "overrides": {
            "sides": [10.0, 20.0, 30.0],
            "steps": 1,
            "iterations": 1,
            "stationary_iterations": 1,
        },
        "matrix": {"seed": [1, 2]},
    }
    document.update(overrides)
    return CampaignSpec.from_dict(document)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestWarmRerun:
    def test_identical_spec_rerun_is_pure_cache_hit(self, counting_experiment, store):
        spec = make_spec()
        cold = CampaignRunner(spec, store).run()
        cold_calls = calls()
        assert cold_calls == 2 * 3  # two seeds x three sides
        assert cold.cache_hits == 0

        warm = CampaignRunner(spec, store).run()
        assert calls() == cold_calls  # zero new measure calls
        assert warm.cache_hits == len(spec.scenarios())
        assert warm.computed_values == 0
        # Bit-identical to the cold run, scenario by scenario, row by row.
        assert warm.sweeps.keys() == cold.sweeps.keys()
        for scenario_id, sweep in warm.sweeps.items():
            assert sweep.rows == cold.sweeps[scenario_id].rows
            assert sweep.parameter_name == cold.sweeps[scenario_id].parameter_name

    def test_no_resume_forces_recompute(self, counting_experiment, store):
        spec = make_spec()
        CampaignRunner(spec, store).run()
        baseline = calls()
        CampaignRunner(spec, store).run(resume=False)
        assert calls() == baseline * 2

    def test_shared_computation_cached_within_one_run(
        self, counting_experiment, store, monkeypatch
    ):
        """Experiments registering the same cache_payload share one sweep —
        including on a --no-resume run, which must recompute shared sweeps
        once per run, not once per scenario."""
        share_payload(monkeypatch)
        spec = make_spec(
            experiments=[EXPERIMENT_ID, SIBLING_ID], matrix={"seed": [1]}
        )
        cold = CampaignRunner(spec, store).run()
        assert calls() == 3  # one shared sweep, not two
        assert cold.cache_hits == 1

        fresh = CampaignRunner(spec, store).run(resume=False)
        assert calls() == 6  # recomputed once, served twice
        assert fresh.cache_hits == 1


class TestKillAndResume:
    def test_killed_campaign_resumes_and_matches_uninterrupted(
        self, counting_experiment, store, tmp_path
    ):
        spec = make_spec()
        # Uninterrupted reference run against its own store.
        reference = CampaignRunner(spec, ResultStore(tmp_path / "ref")).run()
        reference_calls = calls()

        # "Kill" the campaign while measuring value 20.0 of the first
        # scenario.  Tasks run round-robin across scenarios, so value
        # 10.0 of both scenarios has been checkpointed, the rest has not.
        FAIL_AT["value"] = 20.0
        with pytest.raises(RuntimeError):
            CampaignRunner(spec, store).run()
        assert calls() == reference_calls + 2

        statuses = CampaignRunner(spec, store).status()
        assert statuses[0].state == "partial (1/3)"
        assert all(not status.complete for status in statuses)

        # Resume: only the unfinished values are measured.
        FAIL_AT["value"] = None
        resumed = CampaignRunner(spec, store).run()
        assert calls() == 2 * reference_calls  # 2 killed-run calls + the rest
        resumed_outcome = resumed.outcomes[0]
        assert resumed_outcome.loaded_values == 1
        assert resumed_outcome.computed_values == 2

        # The resumed campaign equals the uninterrupted one, bit for bit.
        assert resumed.sweeps.keys() == reference.sweeps.keys()
        for scenario_id, sweep in resumed.sweeps.items():
            assert sweep.rows == reference.sweeps[scenario_id].rows

        # And a final re-run over the healed store is a pure cache hit.
        before = calls()
        final = CampaignRunner(spec, store).run()
        assert calls() == before
        assert final.cache_hits == len(spec.scenarios())


class TestCorruption:
    def corrupt_scenario_entry(self, spec, store):
        scenario = spec.scenarios()[0]
        key = scenario_sweep_key(
            get_experiment(scenario.experiment_id), scenario.scale
        )
        entry_dir = store._entry_dir(key)
        (entry_dir / "data.json").write_text('{"tampered": true}')
        return key

    def test_corrupt_entry_recomputed_not_returned(self, counting_experiment, store):
        spec = make_spec()
        cold = CampaignRunner(spec, store).run()
        baseline = calls()
        key = self.corrupt_scenario_entry(spec, store)

        rerun = CampaignRunner(spec, store).run()
        # The corrupted scenario was recomputed from its (intact) per-value
        # checkpoints: no new measure calls, but no tampered data either.
        assert rerun.outcomes[0].cache_hit is False
        assert rerun.outcomes[0].loaded_values == 3
        assert calls() == baseline
        assert rerun.sweeps.keys() == cold.sweeps.keys()
        for scenario_id, sweep in rerun.sweeps.items():
            assert sweep.rows == cold.sweeps[scenario_id].rows
        # The healed entry is intact again.
        assert store.get(key).rows == cold.outcomes[0].sweep.rows

    def test_corrupt_entry_and_checkpoints_fully_recomputed(
        self, counting_experiment, store
    ):
        spec = make_spec()
        cold = CampaignRunner(spec, store).run()
        baseline = calls()
        self.corrupt_scenario_entry(spec, store)
        # Wipe the first scenario's checkpoints too: full recompute needed.
        runner = CampaignRunner(spec, store)
        scenario = spec.scenarios()[0]
        experiment = get_experiment(scenario.experiment_id)
        for row_key in runner._row_keys(experiment, scenario):
            store.evict(row_key)

        rerun = runner.run()
        assert calls() == baseline + 3
        assert rerun.sweeps[scenario.scenario_id].rows == cold.sweeps[
            scenario.scenario_id
        ].rows


class TestClean:
    def test_clean_removes_exactly_the_grid_entries(self, counting_experiment, store):
        spec = make_spec()
        CampaignRunner(spec, store).run()
        # 2 scenarios x (1 sweep + 3 rows) = 8 entries.
        assert len(store) == 8
        removed = CampaignRunner(spec, store).clean()
        assert removed == 8
        assert len(store) == 0
        statuses = CampaignRunner(spec, store).status()
        assert all(status.state == "missing" for status in statuses)


# --------------------------------------------------------------------------- #
# Determinism test matrix
# --------------------------------------------------------------------------- #
MATRIX_ID = "campaign-matrix-exp"

#: Mutable module config read when the matrix measure is *constructed*
#: (in the parent; the constructed measure is pickled to workers).
MATRIX = {"calls_dir": None, "fail_seed": None, "fail_value": None,
          "fail_after_iterations": None}


class _RecordingIterationCheckpoint:
    """Wraps an iteration checkpoint: marks every simulated iteration and
    optionally simulates a kill after ``fail_after`` fresh saves."""

    def __init__(self, inner, calls_dir, seed, value, fail_after=None):
        self.inner = inner
        self.calls_dir = calls_dir
        self.seed = seed
        self.value = value
        self.fail_after = fail_after
        self.fresh = 0

    def load(self, index):
        return self.inner.load(index) if self.inner is not None else None

    def save(self, index, result):
        if self.inner is not None:
            self.inner.save(index, result)
        _mark(self.calls_dir, f"iter-{self.seed}")
        self.fresh += 1
        if self.fail_after is not None and self.fresh >= self.fail_after:
            raise RuntimeError(
                f"simulated kill after {self.fresh} iterations of value "
                f"{self.value}"
            )


@dataclass(frozen=True)
class MatrixMeasure:
    """Picklable measure running a real multi-iteration simulation.

    Every call leaves a ``measure-<seed>`` marker file and every freshly
    simulated iteration an ``iter-<seed>`` marker, so tests can count
    work across process boundaries.
    """

    scale: ExperimentScale
    calls_dir: str
    fail_seed: Optional[int] = None
    fail_value: Optional[float] = None
    fail_after_iterations: Optional[int] = None
    checkpoint: Optional[SweepCheckpoint] = None

    def __call__(self, side: float) -> Dict[str, float]:
        seed = self.scale.seed
        if (
            self.fail_seed is not None
            and seed == self.fail_seed
            and self.fail_value is not None
            and side >= self.fail_value
            and self.fail_after_iterations is None
        ):
            raise RuntimeError(f"simulated kill at value {side}")
        _mark(self.calls_dir, f"measure-{seed}")
        config = SimulationConfig(
            network=NetworkConfig(node_count=5, side=side, dimension=2),
            mobility=MobilitySpec.stationary(),
            steps=1,
            iterations=self.scale.iterations,
            seed=seed,
        )
        sub = iteration_checkpoint_for(self.checkpoint, side)
        fail_after = (
            self.fail_after_iterations
            if self.fail_seed is not None
            and seed == self.fail_seed
            and self.fail_value is not None
            and side == self.fail_value
            else None
        )
        recorder = _RecordingIterationCheckpoint(
            sub, self.calls_dir, seed, side, fail_after=fail_after
        )
        statistics = collect_frame_statistics(config, checkpoint=recorder)
        pooled = np.concatenate([s.critical_ranges for s in statistics])
        return {"mean_critical": float(pooled.mean()),
                "max_critical": float(pooled.max())}

    def with_value_checkpoint(self, checkpoint) -> "MatrixMeasure":
        return replace(self, checkpoint=checkpoint)


def _matrix_measure(scale: ExperimentScale) -> MatrixMeasure:
    return MatrixMeasure(
        scale=scale,
        calls_dir=MATRIX["calls_dir"],
        fail_seed=MATRIX["fail_seed"],
        fail_value=MATRIX["fail_value"],
        fail_after_iterations=MATRIX["fail_after_iterations"],
    )


def _matrix_iterations(scale: ExperimentScale) -> int:
    return scale.iterations


@pytest.fixture
def matrix_experiment(tmp_path):
    calls_dir = tmp_path / "calls"
    calls_dir.mkdir()
    MATRIX.update(
        calls_dir=str(calls_dir),
        fail_seed=None,
        fail_value=None,
        fail_after_iterations=None,
    )
    experiment = register_experiment(
        Experiment(
            identifier=MATRIX_ID,
            title="Matrix experiment",
            description="Real multi-iteration simulation for the matrix.",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_matrix_measure,
            iterations_per_value=_matrix_iterations,
        )
    )
    yield experiment, str(calls_dir)
    _REGISTRY.pop(MATRIX_ID, None)


def matrix_spec():
    return CampaignSpec.from_dict({
        "name": "matrix",
        "experiments": [MATRIX_ID],
        "scale": "smoke",
        "overrides": {
            "sides": [40.0, 80.0, 120.0],
            "steps": 1,
            "iterations": 3,
            "stationary_iterations": 1,
        },
        "matrix": {"seed": [1, 2]},
    })


def runner_for(budget, store):
    """One cell of the matrix; budget 1 is left to the runner's default
    (one worker, one value at a time)."""
    if budget == 1:
        return CampaignRunner(matrix_spec(), store)
    return CampaignRunner(matrix_spec(), store, total_workers=budget)


@pytest.fixture(scope="module")
def matrix_reference(tmp_path_factory):
    """Cold ``Experiment.run`` reference (no store, no checkpoints)."""
    calls_dir = tmp_path_factory.mktemp("reference-calls")
    MATRIX.update(
        calls_dir=str(calls_dir),
        fail_seed=None,
        fail_value=None,
        fail_after_iterations=None,
    )
    experiment = register_experiment(
        Experiment(
            identifier=MATRIX_ID,
            title="Matrix experiment",
            description="reference",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_matrix_measure,
            iterations_per_value=_matrix_iterations,
        )
    )
    try:
        sweeps = {
            scenario.scenario_id: experiment.run(scenario.scale)
            for scenario in matrix_spec().scenarios()
        }
        measure_calls = _count(str(calls_dir), "measure")
        iteration_calls = _count(str(calls_dir), "iter")
        yield sweeps, measure_calls, iteration_calls
    finally:
        _REGISTRY.pop(MATRIX_ID, None)


class TestDeterminismMatrix:
    """The default budget (1), budget 2 and budget 4 all produce results
    bit-identical to a cold ``Experiment.run``."""

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_bit_identical_to_experiment_run(
        self, matrix_experiment, matrix_reference, tmp_path, budget
    ):
        reference, _, reference_iterations = matrix_reference
        _, calls_dir = matrix_experiment
        result = runner_for(budget, ResultStore(tmp_path / "store")).run()
        assert result.sweeps.keys() == reference.keys()
        for scenario_id, sweep in result.sweeps.items():
            assert sweep.parameter_name == reference[scenario_id].parameter_name
            assert sweep.rows == reference[scenario_id].rows
        # Exactly one simulation per iteration, never more.
        assert _count(calls_dir, "iter") == reference_iterations

    @pytest.mark.parametrize("budget", [1, 2])
    def test_warm_rerun_is_pure_cache_hit(
        self, matrix_experiment, matrix_reference, tmp_path, budget
    ):
        reference, _, _ = matrix_reference
        _, calls_dir = matrix_experiment
        store = ResultStore(tmp_path / "store")
        runner_for(budget, store).run()
        baseline = _count(calls_dir, "measure")
        warm = runner_for(budget, store).run()
        assert _count(calls_dir, "measure") == baseline
        assert warm.computed_values == 0
        assert warm.cache_hits == len(matrix_spec().scenarios())
        for scenario_id, sweep in warm.sweeps.items():
            assert sweep.rows == reference[scenario_id].rows


class TestKillAndResumeMatrix:
    """Kill at scenario / value / iteration granularity, resume at the
    default budget and at budget 2, and end bit-identical with zero
    recomputation of finished work."""

    GRANULARITIES = {
        # seed 2 dies on its first value: scenario 1 is complete, scenario
        # 2 untouched -> resume at scenario granularity.
        "scenario": {"fail_seed": 2, "fail_value": 40.0},
        # seed 1 dies on its second value: value 40 checkpointed ->
        # resume at value granularity.
        "value": {"fail_seed": 1, "fail_value": 80.0},
        # seed 1 dies inside value 80 after 2 of 3 iterations -> resume
        # at iteration granularity.
        "iteration": {
            "fail_seed": 1,
            "fail_value": 80.0,
            "fail_after_iterations": 2,
        },
    }

    @pytest.mark.parametrize("granularity", ["scenario", "value", "iteration"])
    @pytest.mark.parametrize("budget", [1, 2])
    def test_resume_matches_uninterrupted(
        self, matrix_experiment, matrix_reference, tmp_path, budget, granularity
    ):
        reference, _, reference_iterations = matrix_reference
        _, calls_dir = matrix_experiment
        store = ResultStore(tmp_path / "store")

        MATRIX.update(self.GRANULARITIES[granularity])
        with pytest.raises(RuntimeError, match="simulated kill"):
            runner_for(budget, store).run()

        # Resume with the failure cleared.
        MATRIX.update(fail_seed=None, fail_value=None, fail_after_iterations=None)
        resumed = runner_for(budget, store).run()

        assert resumed.sweeps.keys() == reference.keys()
        for scenario_id, sweep in resumed.sweeps.items():
            assert sweep.rows == reference[scenario_id].rows
        # Zero recomputation of finished iterations: every iteration of
        # the campaign was simulated exactly once across kill + resume.
        assert _count(calls_dir, "iter") == reference_iterations

    def test_iteration_kill_leaves_resumable_iteration_entries(
        self, matrix_experiment, tmp_path
    ):
        """After an iteration-granular kill the store holds exactly the
        finished iterations of the killed value, and status() reports
        iteration coverage."""
        _, calls_dir = matrix_experiment
        store = ResultStore(tmp_path / "store")
        MATRIX.update(self.GRANULARITIES["iteration"])
        with pytest.raises(RuntimeError, match="simulated kill"):
            CampaignRunner(matrix_spec(), store).run()
        MATRIX.update(fail_seed=None, fail_value=None, fail_after_iterations=None)

        statuses = CampaignRunner(matrix_spec(), store).status()
        # seed=1: value 40 complete (3 iterations subsumed by its row),
        # value 80 holds 2 of its 3 iteration entries.
        assert statuses[0].state == "partial (1/3 values, 5/9 iterations)"
        assert statuses[0].checkpointed_iterations == 5
        assert statuses[0].total_iterations == 9

        before = _count(calls_dir, "iter")
        CampaignRunner(matrix_spec(), store).run()
        # Tasks run round-robin across scenarios, so seed 2 finished its
        # value 40 before the kill.  Only the 4 missing iterations of
        # seed 1 (1 of value 80, 3 of value 120) and the 6 of seed 2's
        # values 80 and 120 were simulated on resume.
        assert _count(calls_dir, "iter") == before + 4 + 6


class TestSchedulerSemantics:
    def test_shared_payload_computed_once_under_scheduler(
        self, counting_experiment, store, monkeypatch
    ):
        """Two scenarios sharing a cache payload collapse onto one job."""
        share_payload(monkeypatch)
        spec = make_spec(
            experiments=[EXPERIMENT_ID, SIBLING_ID], matrix={"seed": [1]}
        )
        result = CampaignRunner(spec, store, total_workers=2).run()
        assert calls() == 3
        assert result.cache_hits == 1
        assert [outcome.cache_hit for outcome in result.outcomes] == [
            False,
            True,
        ]
        assert result.outcomes[0].sweep.rows == result.outcomes[1].sweep.rows

    @pytest.mark.parametrize("primary", ["computed", "cached", "reassembled"])
    def test_every_alias_reports_a_cache_hit(
        self, counting_experiment, store, monkeypatch, primary
    ):
        """A scenario served by another scenario's sweep emits one
        ``CacheHit`` however that sweep came to exist: measured in this
        run, served from the store, or reassembled from checkpointed
        rows."""
        from repro.campaigns.progress import CacheHit

        share_payload(monkeypatch)
        spec = make_spec(experiments=[EXPERIMENT_ID, SIBLING_ID])
        aliases = [
            scenario.scenario_id
            for scenario in spec.scenarios()
            if scenario.experiment_id == SIBLING_ID
        ]
        if primary != "computed":
            CampaignRunner(spec, store).run()
        if primary == "reassembled":
            for scenario in spec.scenarios():
                store.evict(
                    scenario_sweep_key(
                        get_experiment(scenario.experiment_id), scenario.scale
                    )
                )
        events = []
        CampaignRunner(spec, store, total_workers=2).run(
            progress=events.append
        )
        hits = [event.scenario_id for event in events if isinstance(event, CacheHit)]
        for alias in aliases:
            assert hits.count(alias) == 1, events
        expected = len(spec.scenarios()) if primary == "cached" else len(aliases)
        assert len(hits) == expected

    def test_scheduler_rejects_non_positive_budget(self, counting_experiment, store):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            CampaignRunner(make_spec(), store, total_workers=0).run()


def _queue_job(name, pending):
    """A bare scheduler job with ``pending`` value indices."""
    from repro.campaigns.scheduler import _SweepJob

    return _SweepJob(
        key=name, experiment=None, scenario=None, pending=list(pending)
    )


class TestSchedulerQueueOrder:
    """Tasks interleave round-robin across jobs — the first pending value
    of every job, then the second of every job, and so on — so independent
    scenarios progress together under small budgets."""

    @pytest.mark.parametrize(
        "lanes,expected",
        [
            (
                {"a": [0, 1, 2], "b": [0, 1, 2]},
                [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)],
            ),
            (
                {"a": [0, 1, 2, 3], "b": [1], "c": [0, 2]},
                [("a", 0), ("b", 1), ("c", 0), ("a", 1), ("c", 2), ("a", 2),
                 ("a", 3)],
            ),
            ({"a": [], "b": []}, []),
        ],
        ids=["even", "ragged", "empty"],
    )
    def test_queue_interleaves_jobs_round_robin(self, lanes, expected):
        from repro.campaigns.scheduler import CampaignScheduler

        jobs = [_queue_job(name, pending) for name, pending in lanes.items()]
        queue = CampaignScheduler(None, 1)._queue(jobs)
        assert [(job.key, index) for job, index in queue] == expected

    def test_submission_order_across_scenarios_is_round_robin(
        self, matrix_experiment, store, monkeypatch
    ):
        from repro.campaigns.scheduler import CampaignScheduler

        submitted = []
        original = CampaignScheduler._submit

        def spy(self, job, index):
            submitted.append((job.scenario.scenario_id, job.values[index]))
            return original(self, job, index)

        monkeypatch.setattr(CampaignScheduler, "_submit", spy)
        CampaignRunner(matrix_spec(), store, total_workers=1).run()
        scenario_ids = [scenario.scenario_id for scenario in matrix_spec().scenarios()]
        assert submitted == [
            (scenario_id, side)
            for side in (40.0, 80.0, 120.0)
            for scenario_id in scenario_ids
        ]


class TestSchedulerProgress:
    def test_per_task_completion_events_stream(self, matrix_experiment, store):
        """The scheduler reports every finished task as a structured event
        (scenario, value, coverage), not just one per finished scenario."""
        from repro.campaigns.progress import ScenarioCompleted, TaskCompleted

        experiment, _ = matrix_experiment
        spec = matrix_spec()
        events = []
        CampaignRunner(spec, store, total_workers=2).run(progress=events.append)
        scenario_ids = [scenario.scenario_id for scenario in spec.scenarios()]
        values = [40.0, 80.0, 120.0]
        for scenario_id in scenario_ids:
            tasks = [
                event
                for event in events
                if isinstance(event, TaskCompleted)
                and event.scenario_id == scenario_id
            ]
            # One completion event per parameter value of the scenario.
            assert len(tasks) == len(values), events
            assert sorted(task.value for task in tasks) == values
            # Events carry coverage counts as typed fields — no text
            # parsing required.
            assert {task.values_total for task in tasks} == {len(values)}
            assert any(task.values_done == len(values) for task in tasks)
            assert all(task.iterations == 3 for task in tasks)
            # The scenario summary event still follows the stream.
            assert any(
                isinstance(event, ScenarioCompleted)
                and event.scenario_id == scenario_id
                for event in events
            )

    def test_events_render_to_stable_text_lines(self, matrix_experiment, store):
        """``render`` (what the CLI prints via ``as_text``) keeps the
        established one-line format for every emitted event."""
        from repro.campaigns.progress import (
            ScenarioCompleted,
            TaskCompleted,
            as_text,
            render,
        )

        experiment, _ = matrix_experiment
        spec = matrix_spec()
        events, lines = [], []

        def tee(event):
            events.append(event)
            as_text(lines.append)(event)

        CampaignRunner(spec, store, total_workers=2).run(progress=tee)
        assert lines == [render(event) for event in events]
        task_lines = [
            render(event) for event in events if isinstance(event, TaskCompleted)
        ]
        assert any("value 40 done" in line for line in task_lines)
        assert any("3/3 values" in line for line in task_lines)
        assert all("iteration(s)" in line for line in task_lines)
        summary_lines = [
            render(event)
            for event in events
            if isinstance(event, ScenarioCompleted)
        ]
        assert all("computed" in line and "resumed" in line for line in summary_lines)

    def test_cache_hit_event_is_structured(self, matrix_experiment, store):
        from repro.campaigns.progress import CacheHit, render

        experiment, _ = matrix_experiment
        spec = matrix_spec()
        CampaignRunner(spec, store, total_workers=2).run()
        events = []
        CampaignRunner(spec, store, total_workers=2).run(progress=events.append)
        hits = [event for event in events if isinstance(event, CacheHit)]
        assert len(hits) == len(spec.scenarios())
        for hit in hits:
            assert hit.key  # the full store key rides along for consumers
            assert f"cache hit ({hit.key[:12]})" in render(hit)

    def test_progress_events_preserve_results(self, matrix_experiment, store):
        """Streaming progress must not disturb scheduling semantics."""
        experiment, _ = matrix_experiment
        spec = matrix_spec()
        silent_store = ResultStore(store.root.parent / "silent")
        loud = CampaignRunner(spec, store, total_workers=2).run(
            progress=lambda event: None
        )
        silent = CampaignRunner(spec, silent_store, total_workers=2).run()
        for mine, theirs in zip(loud.outcomes, silent.outcomes):
            assert mine.sweep.rows == theirs.sweep.rows
