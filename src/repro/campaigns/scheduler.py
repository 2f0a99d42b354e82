"""Campaign execution: every scenario's values as tasks under one budget.

:meth:`repro.campaigns.runner.CampaignRunner.run` hands every campaign to
the scheduler here, with one total worker budget ``W`` (``campaign run
--total-workers``, default 1):

* every *unique* sweep computation of the grid — scenarios sharing a
  cache payload collapse onto one job, exactly as they share one store
  entry — is decomposed into its per-parameter-value tasks, each running
  the experiment's registered measure (see :class:`repro.experiments.
  registry.Experiment`);
* tasks from *all* scenarios run concurrently in one shared process pool
  holding at most ``W`` workers, interleaved round-robin across jobs so
  independent scenarios genuinely progress together.  Each task occupies
  one worker and runs its value's simulation iterations serially, so the
  pool never starts nested pools;
* failures are supervised per value task under the runner's
  :class:`~repro.supervision.RetryPolicy` (retries, task timeout,
  quarantine).

Determinism
-----------
Every value task computes exactly what :meth:`Experiment.run` computes
for that value — the same registered measure applied to the same value.
Rows are assembled in sweep order, value rows are checkpointed in
completion order and iteration sub-checkpoints are written inside the
task.  A scheduled campaign is therefore bit-identical to
``Experiment.run`` at every budget, and a killed one resumes at the
first unfinished iteration.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.campaigns.progress import (
    CacheHit,
    ProgressEvent,
    ScenarioCompleted,
    StoreDegraded,
    TaskCompleted,
    TaskFailed,
    TaskQuarantined,
    TaskRetried,
)
from repro.campaigns.spec import Scenario
from repro.experiments.registry import Experiment, get_experiment
from repro.simulation.sweep import SweepResult, measure_row
from repro.store.checkpoints import StoreSweepCheckpoint
from repro.supervision import run_supervised

__all__ = ["CampaignScheduler"]


@dataclass(eq=False)
class _SweepJob:
    """One unique sweep computation and the scenarios it serves.

    ``eq=False`` keeps identity hashing: ``(job, index)`` pairs are the
    hashable task descriptors of the supervised gather.
    """

    key: str
    experiment: Experiment
    scenario: Scenario
    aliases: List[Scenario] = field(default_factory=list)
    cache_hit: bool = False
    checkpoint: Optional[StoreSweepCheckpoint] = None
    values: List[float] = field(default_factory=list)
    measure: Any = None
    rows: Dict[int, Dict[str, float]] = field(default_factory=dict)
    pending: List[int] = field(default_factory=list)
    loaded_values: int = 0
    computed_values: int = 0
    sweep: Optional[SweepResult] = None
    quarantined: Dict[int, str] = field(default_factory=dict)
    degradation_reported: bool = False

    @property
    def done(self) -> bool:
        return self.sweep is not None


class CampaignScheduler:
    """Run a campaign's scenario grid concurrently under one budget.

    Constructed by :meth:`repro.campaigns.runner.CampaignRunner.run`;
    uses the runner's spec, store, retry policy, checkpoint construction
    and eviction helpers.
    """

    def __init__(self, runner, total_workers: int) -> None:
        from repro.exceptions import ConfigurationError

        if total_workers < 1:
            raise ConfigurationError(
                f"total_workers must be at least 1, got {total_workers}"
            )
        self.runner = runner
        self.total_workers = total_workers
        # Scenario spans stay open while a job's tasks are in flight —
        # lifetimes interleave, so these are manual begin/end spans keyed
        # by job, not context-manager spans (see repro.telemetry.tracing).
        self._spans: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    def run(
        self,
        resume: bool = True,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ):
        """The body of :meth:`CampaignRunner.run` (same arguments, same
        return type).  ``progress`` receives structured
        :data:`~repro.campaigns.progress.ProgressEvent` objects."""
        from repro.campaigns.runner import (
            CampaignResult,
            ScenarioOutcome,
            scenario_sweep_key,
        )

        runner = self.runner
        say = progress if progress is not None else (lambda event: None)
        if not resume:
            for scenario in runner.spec.scenarios():
                runner.evict_scenario(
                    get_experiment(scenario.experiment_id), scenario
                )

        jobs: Dict[str, _SweepJob] = {}
        order: List[Tuple[Scenario, str]] = []
        for scenario in runner.spec.scenarios():
            experiment = get_experiment(scenario.experiment_id)
            key = scenario_sweep_key(experiment, scenario.scale)
            order.append((scenario, key))
            if key in jobs:
                alias_of = jobs[key]
                alias_of.aliases.append(scenario)
                if alias_of.done:
                    self._serve_alias(scenario, key, say)
                continue
            job = _SweepJob(key=key, experiment=experiment, scenario=scenario)
            jobs[key] = job
            sweep = runner.probe_sweep(scenario, key, say)
            if sweep is not None:
                job.sweep = sweep
                job.cache_hit = True
                continue
            self._spans[key] = telemetry.begin_span(
                "scenario",
                scenario=scenario.scenario_id,
                experiment=experiment.identifier,
            )
            self._prepare(job, say)

        try:
            self._execute([job for job in jobs.values() if not job.done], say)
        finally:
            # Quarantined jobs never reach _finish; close their
            # spans (and any left by an exception) so the trace balances.
            for key, span in list(self._spans.items()):
                job = jobs.get(key)
                status = (
                    "quarantined" if job is not None and job.quarantined
                    else "ok"
                )
                span.end(status=status)
            self._spans.clear()

        outcomes: List[ScenarioOutcome] = []
        primaries: set = set()
        for scenario, key in order:
            job = jobs[key]
            primary = key not in primaries
            primaries.add(key)
            if job.cache_hit or (not primary and job.sweep is not None):
                # Aliases of a finished job are served the entry it
                # stored, as a cache hit.
                outcomes.append(
                    ScenarioOutcome(scenario=scenario, sweep=job.sweep, cache_hit=True)
                )
            else:
                # Quarantined jobs surface here with ``sweep=None``: the
                # campaign completed around them and their finished rows
                # are checkpointed, but no complete sweep exists.  Their
                # quarantined-task count is attributed to the primary
                # scenario only (aliases share the poison records).
                outcomes.append(
                    ScenarioOutcome(
                        scenario=scenario,
                        sweep=job.sweep,
                        cache_hit=False,
                        loaded_values=job.loaded_values if primary else 0,
                        computed_values=job.computed_values if primary else 0,
                        quarantined_values=len(job.quarantined) if primary else 0,
                    )
                )
        return CampaignResult(spec=runner.spec, outcomes=outcomes)

    # ------------------------------------------------------------------ #
    def _prepare(self, job: _SweepJob, say: Callable[[ProgressEvent], None]) -> None:
        """Decompose one job into value tasks, loading checkpointed rows."""
        experiment = job.experiment
        scale = job.scenario.scale
        job.checkpoint = self.runner._checkpoint_for(experiment, job.scenario)
        job.values = [float(value) for value in experiment.sweep_values(scale)]
        for index, value in enumerate(job.values):
            row = job.checkpoint.load(value)
            if row is not None:
                job.rows[index] = dict(row)
        job.loaded_values = len(job.rows)
        job.pending = [
            index for index in range(len(job.values)) if index not in job.rows
        ]
        job.measure = experiment.measure_for(scale, job.checkpoint)
        if not job.pending:
            # Every row was checkpointed: the sweep reassembles for free.
            self._finish(job, say)

    def _finish(self, job: _SweepJob, say: Callable[[ProgressEvent], None]) -> None:
        """Assemble a completed job, persist its sweep, serve its aliases."""
        job.sweep = SweepResult(
            parameter_name=job.experiment.parameter_name,
            rows=[job.rows[index] for index in range(len(job.values))],
        )
        self.runner._put_sweep(
            job.key, job.sweep, job.scenario.scenario_id, say
        )
        span = self._spans.pop(job.key, None)
        if span is not None:
            span.set(
                computed_values=job.computed_values,
                loaded_values=job.loaded_values,
            )
            span.end()
        say(
            ScenarioCompleted(
                scenario_id=job.scenario.scenario_id,
                computed_values=job.computed_values,
                loaded_values=job.loaded_values,
            )
        )
        for alias in job.aliases:
            self._serve_alias(alias, job.key, say)

    @staticmethod
    def _serve_alias(
        scenario: Scenario, key: str, say: Callable[[ProgressEvent], None]
    ) -> None:
        """Report a scenario served by the sweep its alias job stored."""
        telemetry.metrics.counter("campaign.cache.hits").add(1)
        say(CacheHit(scenario_id=scenario.scenario_id, key=key))

    def _note_degradation(
        self, job: _SweepJob, say: Callable[[ProgressEvent], None]
    ) -> None:
        """Surface a checkpoint's first degradation as a progress event."""
        if job.checkpoint.degraded and not job.degradation_reported:
            job.degradation_reported = True
            say(
                StoreDegraded(
                    scenario_id=job.scenario.scenario_id,
                    scope="row",
                    reason=job.checkpoint.degraded,
                )
            )

    # ------------------------------------------------------------------ #
    def _queue(self, jobs: List[_SweepJob]) -> List[Tuple[_SweepJob, int]]:
        """All runnable tasks, interleaved round-robin across jobs.

        Round-robin (first value of every job, then second of every job,
        ...) is what makes independent scenarios run *concurrently* under
        small budgets instead of draining one scenario at a time.
        """
        lanes = [[(job, index) for index in job.pending] for job in jobs]
        queue: List[Tuple[_SweepJob, int]] = []
        depth = 0
        while True:
            emitted = False
            for lane in lanes:
                if depth < len(lane):
                    queue.append(lane[depth])
                    emitted = True
            if not emitted:
                return queue
            depth += 1

    def _submit(self, pool: ProcessPoolExecutor, job: _SweepJob, index: int):
        """Submit one value task to ``pool``; returns its future.

        The submitted callable is wrapped with the job's scenario span
        context (:func:`repro.telemetry.propagate`): the worker-side task
        span then parents under this scenario across the process
        boundary.  With telemetry inactive the wrap is identity.
        """
        return pool.submit(
            telemetry.propagate(measure_row, parent=self._spans.get(job.key)),
            job.experiment.parameter_name,
            job.measure,
            job.values[index],
        )

    def _task_event(self, job: _SweepJob, index: int) -> TaskCompleted:
        """One per-task completion event for the progress stream.

        Scenario, parameter value, value coverage and the iterations per
        value when the experiment declares them — so a long campaign
        reports progress at task completion rate instead of one event per
        finished scenario.
        """
        return TaskCompleted(
            scenario_id=job.scenario.scenario_id,
            value=job.values[index],
            values_done=len(job.rows),
            values_total=len(job.values),
            iterations=job.experiment.checkpoint_iterations(job.scenario.scale),
        )

    # ------------------------------------------------------------------ #
    # Task dispositions.  These are methods (not closures of _execute) so
    # execution backends that replace _execute — the pull-based
    # DistributedCampaign drains an HTTP work queue instead of a local
    # pool — apply the *same* row saving, poison recording and progress
    # reporting to results however they arrive.

    def _handle_result(
        self,
        task: Tuple[_SweepJob, int],
        result: Any,
        say: Callable[[ProgressEvent], None],
    ) -> None:
        """Land one finished task: save its row, finish jobs that fill."""
        job, index = task
        job.checkpoint.save(job.values[index], result)
        self._note_degradation(job, say)
        job.rows[index] = result
        job.computed_values += 1
        say(self._task_event(job, index))
        if len(job.rows) == len(job.values):
            self._finish(job, say)

    def _handle_retry(
        self,
        task: Tuple[_SweepJob, int],
        error: Any,
        attempt: int,
        delay: float,
        say: Callable[[ProgressEvent], None],
    ) -> None:
        job, index = task
        say(
            TaskFailed(
                scenario_id=job.scenario.scenario_id,
                value=job.values[index],
                attempt=attempt,
                error=str(error),
            )
        )
        say(
            TaskRetried(
                scenario_id=job.scenario.scenario_id,
                value=job.values[index],
                attempt=attempt,
                max_retries=self.runner.retry_policy.max_retries,
                delay=delay,
                error=str(error),
            )
        )

    def _handle_giveup(
        self,
        task: Tuple[_SweepJob, int],
        error: Any,
        attempts: int,
        say: Callable[[ProgressEvent], None],
    ) -> bool:
        """Quarantine an exhausted task: poison record + progress events."""
        job, index = task
        value = job.values[index]
        say(
            TaskFailed(
                scenario_id=job.scenario.scenario_id,
                value=value,
                attempt=attempts,
                error=str(error),
            )
        )
        self.runner.store.record_poison(
            job.checkpoint.key_for(value),
            {
                "campaign": self.runner.spec.name,
                "scenario": job.scenario.scenario_id,
                "value": value,
                "error": str(error),
                "attempts": attempts,
            },
        )
        job.quarantined[index] = str(error)
        say(
            TaskQuarantined(
                scenario_id=job.scenario.scenario_id,
                value=value,
                attempts=attempts,
                error=str(error),
            )
        )
        return True

    def _execute(
        self, jobs: List[_SweepJob], say: Callable[[ProgressEvent], None]
    ) -> None:
        """The scheduling loop: submit within budget, collect results.

        Runs through :func:`repro.supervision.run_supervised`: with the
        runner's default policy the first failure aborts the run, and
        with ``max_retries`` / ``task_timeout`` opted in a crashed
        worker, task exception or hung task is retried with
        backoff on a respawned pool (dead writers' staging directories
        swept in between) and quarantined as a poison task once its
        retries are exhausted — the campaign finishes around it.

        Every finished task emits one progress event (scenario, value,
        coverage counts) the moment it completes; scenario-level summary
        lines still follow when a whole sweep lands, and every failed
        attempt emits ``TaskFailed`` plus its ``TaskRetried`` /
        ``TaskQuarantined`` disposition.
        """
        queue = self._queue(jobs)
        if not queue:
            return
        policy = self.runner.retry_policy
        store = self.runner.store

        def submit(pool: ProcessPoolExecutor, task):
            job, index = task
            return self._submit(pool, job, index)

        def on_result(task, result) -> None:
            self._handle_result(task, result, say)

        def on_retry(task, error, attempt: int, delay: float) -> None:
            self._handle_retry(task, error, attempt, delay, say)

        def on_giveup(task, error, attempts: int) -> bool:
            return self._handle_giveup(task, error, attempts, say)

        def on_respawn() -> None:
            try:
                store.sweep_dead_staging()
            except Exception:
                pass  # best-effort hygiene; never mask the recovery

        run_supervised(
            queue,
            budget=self.total_workers,
            submit=submit,
            on_result=on_result,
            policy=policy,
            on_retry=on_retry,
            on_giveup=on_giveup if policy.supervised else None,
            on_respawn=on_respawn,
        )
