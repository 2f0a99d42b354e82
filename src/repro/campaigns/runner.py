"""Cached, resumable execution of campaign grids.

The runner walks a :class:`~repro.campaigns.spec.CampaignSpec`'s scenario
grid.  For every scenario it derives the content address of the complete
sweep (experiment cache payload + schema version) and

* returns the stored sweep when the address is already present and intact
  (*zero* simulation work — a warm re-run performs no measure calls);
* otherwise measures the missing values through a per-parameter-value
  :class:`~repro.store.checkpoints.StoreSweepCheckpoint` — carrying
  per-*iteration* sub-checkpoints for experiments that register an
  ``iterations_per_value`` — so each finished value *and* each finished
  iteration inside an unfinished value is durable the moment it exists,
  and a killed campaign resumes at the first unfinished iteration (the
  figure measures use iteration sub-checkpoints only for values of at
  least :data:`repro.experiments.figures.CHECKPOINT_MIN_NODE_FRAMES`
  node-frames; a smaller value resumes from its start);
* detects corrupt entries (failed sha256 / undecodable payloads), evicts
  them and recomputes instead of returning damaged results.

Execution has one shape: the :class:`~repro.campaigns.scheduler.
CampaignScheduler` runs the parameter values of every scenario as
independent tasks in one pool of ``total_workers`` workers (default 1),
supervised per value under the runner's retry policy.  The budget never
enters cache keys.

Because every measure call is deterministic given the scenario
description, a resumed, cache-served or wider campaign is bit-identical
to :meth:`~repro.experiments.registry.Experiment.run` of each scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import telemetry
from repro.campaigns.progress import (
    CacheHit,
    EntryEvicted,
    ProgressEvent,
    StoreDegraded,
)
from repro.campaigns.completeness import cell_completeness
from repro.campaigns.scheduler import CampaignScheduler
from repro.campaigns.spec import CampaignSpec, Scenario
from repro.experiments.registry import Experiment, ExperimentScale, get_experiment
from repro.simulation.sweep import SweepResult
from repro.store.checkpoints import StoreSweepCheckpoint
from repro.store.keys import SWEEP_KIND, cache_key, scale_payload
from repro.store.result_store import (
    ResultStore,
    StoreIntegrityError,
    is_degradable_error,
)
from repro.supervision import RetryPolicy


def scenario_payload(experiment: Experiment, scale: ExperimentScale) -> Dict[str, Any]:
    """The canonical content-address payload of one scenario's sweep.

    Uses the experiment's registered ``cache_payload`` when it has one
    (experiments running the same computation share entries), otherwise
    the experiment identifier plus the scale's logical fields.
    """
    if experiment.cache_payload is not None:
        return experiment.cache_payload(scale)
    return {
        "computation": "experiment",
        "experiment": experiment.identifier,
        "scale": scale_payload(scale),
    }


def scenario_sweep_key(experiment: Experiment, scale: ExperimentScale) -> str:
    """Content address of the complete sweep of one scenario."""
    return cache_key(SWEEP_KIND, scenario_payload(experiment, scale))


@dataclass(frozen=True)
class ScenarioOutcome:
    """What happened to one scenario during a campaign run.

    ``sweep`` is ``None`` when the scenario was quarantined (its tasks
    exhausted their retry budget under a supervising policy): the
    campaign completed around it, its finished rows stay checkpointed,
    and ``quarantined_values`` counts the poison tasks recorded.
    """

    scenario: Scenario
    sweep: Optional[SweepResult] = field(repr=False)
    cache_hit: bool
    loaded_values: int = 0
    computed_values: int = 0
    quarantined_values: int = 0


@dataclass(frozen=True)
class ScenarioStatus:
    """Store-side progress of one scenario (``status`` subcommand).

    ``checkpointed_iterations`` / ``total_iterations`` report iteration-
    granular coverage for experiments that checkpoint per iteration:
    finished values count all of their iterations (their row subsumes
    them), unfinished values count the iteration sub-entries actually
    present.  Both are 0 when the experiment only checkpoints values.
    """

    scenario: Scenario
    complete: bool
    checkpointed_values: int
    total_values: int
    checkpointed_iterations: int = 0
    total_iterations: int = 0
    quarantined: int = 0

    @property
    def state(self) -> str:
        suffix = f", {self.quarantined} quarantined" if self.quarantined else ""
        if self.complete:
            return "complete"
        if self.checkpointed_values or self.checkpointed_iterations:
            if self.total_iterations:
                return (
                    f"partial ({self.checkpointed_values}/{self.total_values} "
                    f"values, {self.checkpointed_iterations}/"
                    f"{self.total_iterations} iterations{suffix})"
                )
            return (
                f"partial ({self.checkpointed_values}/{self.total_values}"
                f"{suffix})"
            )
        if self.quarantined:
            return f"missing ({self.quarantined} quarantined)"
        return "missing"


@dataclass(frozen=True)
class CampaignResult:
    """All scenario outcomes of one campaign run, in grid order."""

    spec: CampaignSpec
    outcomes: List[ScenarioOutcome]

    @property
    def sweeps(self) -> Dict[str, SweepResult]:
        """Scenario id -> sweep, for every *completed* scenario.

        Quarantined scenarios (``outcome.sweep is None``) are omitted —
        their finished rows stay checkpointed in the store but no
        complete sweep exists to hand out.
        """
        return {
            outcome.scenario.scenario_id: outcome.sweep
            for outcome in self.outcomes
            if outcome.sweep is not None
        }

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cache_hit)

    @property
    def computed_values(self) -> int:
        return sum(outcome.computed_values for outcome in self.outcomes)

    @property
    def quarantined_tasks(self) -> int:
        """Poison tasks recorded across the run (0 on a healthy campaign)."""
        return sum(outcome.quarantined_values for outcome in self.outcomes)


class CampaignRunner:
    """Execute a campaign grid against a result store.

    Args:
        spec: the campaign to run.
        store: destination/source of cached results.
        total_workers: one total worker budget for the whole campaign
            (default 1): the parameter values of all scenarios run as
            one-worker tasks sharing it.
        max_retries: failed attempts a value task may accumulate beyond
            its first before it is quarantined as a poison task
            (0/``None`` = fail fast).
        task_timeout: seconds one value task may run before its pool is
            presumed wedged and SIGKILLed.
        retry_backoff: base of the capped exponential backoff between
            attempts (seconds; default 0.5).
        telemetry: record the run's spans/metrics under
            ``<store root>/telemetry/<run id>/`` and seal them into a
            ``run_report.json`` (see :mod:`repro.telemetry`).  Defaults
            to on; pass ``False`` to opt out.  Tracing never affects
            results, and a failing trace sink never fails the campaign.

    The budget and supervision knobs only change wall-clock behaviour; they
    never enter cache keys, and results are bit-identical for every
    setting — a retried task reproduces exactly the result it would have
    had, because every measure call is a pure function of its value.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        total_workers: int = 1,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retry_backoff: Optional[float] = None,
        telemetry: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.total_workers = total_workers
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.telemetry = True if telemetry is None else bool(telemetry)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The supervision policy the runner's knobs select (validated)."""
        return RetryPolicy(
            max_retries=self.max_retries or 0,
            backoff=0.5 if self.retry_backoff is None else self.retry_backoff,
            task_timeout=self.task_timeout,
        )

    # ------------------------------------------------------------------ #
    def _checkpoint_for(
        self,
        experiment: Experiment,
        scenario: Scenario,
        store: Optional[ResultStore] = None,
    ) -> StoreSweepCheckpoint:
        """A scenario's sweep checkpoint, optionally bound to ``store``.

        ``store`` substitutes the backing store without changing any key
        — the distributed path binds worker-side checkpoints to a
        :class:`~repro.distributed.remote_store.RemoteResultStore` so
        iteration sub-entries written inside a leased task land in the
        same server-side store the scheduler reads.
        """
        return StoreSweepCheckpoint(
            self.store if store is None else store,
            scenario_payload(experiment, scenario.scale),
            metadata={
                "campaign": self.spec.name,
                "scenario": scenario.scenario_id,
            },
            iterations=experiment.checkpoint_iterations(scenario.scale),
        )

    def _row_keys(self, experiment: Experiment, scenario: Scenario) -> List[str]:
        checkpoint = self._checkpoint_for(experiment, scenario)
        return [
            checkpoint.key_for(value)
            for value in experiment.sweep_values(scenario.scale)
        ]

    def _iteration_keys(
        self, experiment: Experiment, scenario: Scenario
    ) -> List[str]:
        """Every iteration sub-key the scenario can address (may be [])."""
        checkpoint = self._checkpoint_for(experiment, scenario)
        keys: List[str] = []
        for value in experiment.sweep_values(scenario.scale):
            keys.extend(checkpoint.iteration_keys_for(value))
        return keys

    def probe_sweep(
        self, scenario: Scenario, key: str, say: Callable[[ProgressEvent], None]
    ) -> Optional[SweepResult]:
        """The stored sweep under ``key``, or ``None`` to (re)compute.

        A corrupt entry, or one evicted by a concurrent writer between
        ``contains()`` and ``get()``, is quarantined — moved aside with
        provenance for post-mortem diagnosis instead of silently deleted
        — and reported as a miss, so the sweep recomputes.
        """
        if not self.store.contains(key):
            telemetry.metrics.counter("campaign.cache.misses").add(1)
            return None
        try:
            sweep = self.store.get(key)
        except (KeyError, StoreIntegrityError) as error:
            self.store.quarantine_entry(key, reason=str(error))
            telemetry.metrics.counter("campaign.cache.evictions").add(1)
            say(EntryEvicted(scenario_id=scenario.scenario_id))
            return None
        telemetry.metrics.counter("campaign.cache.hits").add(1)
        say(CacheHit(scenario_id=scenario.scenario_id, key=key))
        return sweep

    def _put_sweep(
        self,
        key: str,
        sweep: SweepResult,
        scenario_id: str,
        say: Callable[[ProgressEvent], None],
    ) -> None:
        """Persist one complete sweep, degrading gracefully on ENOSPC & co.

        A degradable write failure loses only the sweep-level cache entry
        — every row is already checkpointed (or held in memory by the
        degraded checkpoint), so the run's results are intact and the
        next healthy run reassembles the sweep for free.
        """
        try:
            self.store.put(
                key,
                sweep,
                metadata={
                    "campaign": self.spec.name,
                    "scenario": scenario_id,
                },
                kind=SWEEP_KIND,
            )
        except OSError as error:
            if not is_degradable_error(error):
                raise
            say(
                StoreDegraded(
                    scenario_id=scenario_id, scope="sweep", reason=str(error)
                )
            )

    # ------------------------------------------------------------------ #
    def run(
        self,
        resume: bool = True,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> CampaignResult:
        """Run every scenario of the grid, reusing the store where possible.

        Execution is handed to the :class:`~repro.campaigns.scheduler.
        CampaignScheduler` (scenarios concurrent under one budget).

        Args:
            resume: when ``True`` (default), existing store entries are
                reused; when ``False`` every entry the grid addresses is
                evicted *up front*, forcing one clean recomputation (which
                is itself checkpointed, so even a fresh run is kill-safe —
                and sweeps shared between scenarios are still computed
                only once per run).
            progress: optional callable receiving one structured
                :data:`~repro.campaigns.progress.ProgressEvent` per
                reportable fact (cache hits, finished tasks, finished
                scenarios).  Text consumers wrap a ``str`` sink with
                :func:`repro.campaigns.progress.as_text` — the CLI passes
                ``as_text(print)``.
        """
        say = progress if progress is not None else (lambda event: None)
        run_handle = self._start_telemetry()
        if run_handle is not None:
            # Progress events double as trace annotations; the consumer
            # still receives the identical event objects, so CLI text is
            # byte for byte what it was without telemetry.
            say = telemetry.annotated(say)
        result: Optional[CampaignResult] = None
        try:
            with telemetry.span(
                "campaign",
                campaign=self.spec.name,
                scenarios=self.spec.scenario_count(),
                total_workers=self.total_workers,
            ):
                result = CampaignScheduler(self, self.total_workers).run(
                    resume=resume, progress=say
                )
            return result
        finally:
            if run_handle is not None:
                run_handle.finish(result)

    def _start_telemetry(self) -> Optional[telemetry.TelemetryRun]:
        """Arm a telemetry run under the store root, or ``None``.

        Observability must never take a campaign down: any failure to
        create the run directory (read-only store, permissions) simply
        runs the campaign untraced.
        """
        if not self.telemetry:
            return None
        try:
            return telemetry.start_run(
                Path(self.store.root) / "telemetry", campaign=self.spec.name
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:
            return None

    # ------------------------------------------------------------------ #
    def status(self) -> List[ScenarioStatus]:
        """Store-side progress of every scenario, in grid order.

        Iteration coverage counts a finished value's iterations as fully
        covered (its row subsumes them — the sub-entries were evicted on
        save) plus whatever iteration sub-entries unfinished values have
        actually persisted.  ``quarantined`` counts the scenario's keys
        (sweep and value rows) with poison records — tasks that exhausted
        their retry budget in a supervised run.  The records persist for
        post-mortem until ``campaign clean`` (or ``--no-resume``) drops
        them; a re-run still attempts the tasks afresh.
        """
        statuses: List[ScenarioStatus] = []
        poisoned = self.store.poison_keys()
        for scenario in self.spec.scenarios():
            experiment = get_experiment(scenario.experiment_id)
            checkpoint = self._checkpoint_for(experiment, scenario)
            counts = cell_completeness(
                self.store,
                checkpoint,
                list(experiment.sweep_values(scenario.scale)),
                poisoned=poisoned,
            )
            statuses.append(
                ScenarioStatus(
                    scenario=scenario,
                    complete=counts.complete,
                    checkpointed_values=counts.checkpointed_values,
                    total_values=counts.total_values,
                    checkpointed_iterations=counts.checkpointed_iterations,
                    total_iterations=counts.total_iterations,
                    quarantined=counts.quarantined,
                )
            )
        return statuses

    def evict_scenario(self, experiment: Experiment, scenario: Scenario) -> int:
        """Remove one scenario's sweep, row and iteration entries.

        Poison records and quarantined-entry copies of the same keys are
        dropped along with them (and counted), so an evicted scenario
        starts over with a clean slate — quarantine is an exclusion of
        *recorded* failures, not a permanent ban.
        """
        removed = 0
        sweep_key = scenario_sweep_key(experiment, scenario.scale)
        keys = (
            [sweep_key]
            + self._row_keys(experiment, scenario)
            + self._iteration_keys(experiment, scenario)
        )
        for entry_key in keys:
            if self.store.evict(entry_key):
                removed += 1
            if self.store.clear_poison(entry_key):
                removed += 1
            if self.store.drop_quarantined_entry(entry_key):
                removed += 1
        return removed

    def clean(self) -> int:
        """Evict every entry this campaign's grid addresses.

        Content addressing means entries are shared with any other
        campaign describing the same computation; ``clean`` removes the
        entries *this* spec reaches, not the whole store.
        """
        removed = 0
        for scenario in self.spec.scenarios():
            experiment = get_experiment(scenario.experiment_id)
            removed += self.evict_scenario(experiment, scenario)
        # Stale staging directories from killed writers are swept as a
        # side effect but are not store entries; they don't count.
        self.store.clear_staging()
        return removed


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    resume: bool = True,
    total_workers: int = 1,
    max_retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retry_backoff: Optional[float] = None,
    telemetry: Optional[bool] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    runner = CampaignRunner(
        spec,
        store,
        total_workers=total_workers,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        telemetry=telemetry,
    )
    return runner.run(resume=resume, progress=progress)
