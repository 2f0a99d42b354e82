"""Chaos test matrix: injected faults x worker budgets.

Satellite acceptance for the fault-tolerance PR: every failure mode the
supervision layer claims to survive — a SIGKILLed worker, a task
exception, a hung task, checkpoint writes failing with ENOSPC, a corrupt
store entry — is injected deterministically (via :mod:`repro.faults`)
into a real campaign under budgets 1, 2 and 4, and every cell asserts

* the campaign completes and its rows are **bit-identical** to a
  fault-free reference run, and
* no checkpointed work is recomputed: filesystem markers count every
  successful measure execution across worker processes, and the count
  equals the reference count exactly (failed attempts die *before* the
  marker, so a transient fault plus its retry leaves one marker, same
  as a healthy run).

Below the matrix: quarantine semantics (poison tasks surface in
``campaign status``, ``campaign clean`` drops them, the CLI exits
non-zero), store-level transient-IO retries, graceful degradation and
the fault-injection primitives themselves.
"""

import glob
import json
import os
import time
import uuid
import warnings
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict

import pytest

from repro import faults
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.campaigns.progress import (
    EntryEvicted,
    StoreDegraded,
    TaskFailed,
    TaskQuarantined,
    TaskRetried,
)
from repro.campaigns.runner import scenario_sweep_key
from repro.exceptions import ConfigurationError
from repro.faults import FaultSpec, InjectedFault
from repro.experiments.registry import (
    _REGISTRY,
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.store import ResultStore, StoreDegradedWarning
from repro.supervision import RetryPolicy, run_supervised

CHAOS_ID = "chaos-test-exp"

#: Mutable module config read when the measure is constructed (in the
#: parent; the constructed measure pickles into pool workers).
CHAOS = {"calls_dir": None}


def _mark(calls_dir, prefix):
    with open(os.path.join(calls_dir, f"{prefix}-{uuid.uuid4().hex}"), "w"):
        pass


def _count(calls_dir, prefix="measure"):
    return len(glob.glob(os.path.join(calls_dir, f"{prefix}-*")))


@dataclass(frozen=True)
class ChaosMeasure:
    """Picklable measure leaving one marker per *successful* execution.

    The ``measure`` fault site fires at :func:`repro.simulation.sweep.
    measure_row` entry — before this body runs — so killed/raised/hung
    attempts leave no marker and the marker count equals the number of
    completed measure executions, across all processes.
    """

    seed: int
    calls_dir: str

    def __call__(self, value: float) -> Dict[str, float]:
        _mark(self.calls_dir, f"measure-{self.seed}")
        return {
            "metric": value * 2.0 + self.seed,
            "root": float(value**0.5) + self.seed,
        }


def _chaos_measure(scale: ExperimentScale) -> ChaosMeasure:
    return ChaosMeasure(seed=scale.seed or 0, calls_dir=CHAOS["calls_dir"])


@pytest.fixture
def chaos_experiment(tmp_path):
    calls_dir = tmp_path / "calls"
    calls_dir.mkdir()
    CHAOS["calls_dir"] = str(calls_dir)
    experiment = register_experiment(
        Experiment(
            identifier=CHAOS_ID,
            title="Chaos experiment",
            description="Counts successful measures for the fault matrix.",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_chaos_measure,
        )
    )
    yield experiment, str(calls_dir)
    _REGISTRY.pop(CHAOS_ID, None)


def chaos_spec():
    return CampaignSpec.from_dict({
        "name": "chaos",
        "experiments": [CHAOS_ID],
        "scale": "smoke",
        "overrides": {
            "sides": [10.0, 20.0, 30.0],
            "steps": 1,
            "iterations": 1,
            "stationary_iterations": 1,
        },
        "matrix": {"seed": [1, 2]},
    })


@pytest.fixture(scope="module")
def chaos_reference(tmp_path_factory):
    """Fault-free ``Experiment.run`` reference: rows per scenario + measure
    count."""
    calls_dir = tmp_path_factory.mktemp("reference-calls")
    CHAOS["calls_dir"] = str(calls_dir)
    experiment = register_experiment(
        Experiment(
            identifier=CHAOS_ID,
            title="Chaos experiment",
            description="reference",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_chaos_measure,
        )
    )
    try:
        sweeps = {
            scenario.scenario_id: experiment.run(scenario.scale)
            for scenario in chaos_spec().scenarios()
        }
        yield sweeps, _count(str(calls_dir))
    finally:
        _REGISTRY.pop(CHAOS_ID, None)


def assert_bit_identical(result, reference):
    assert result.sweeps.keys() == reference.keys()
    for scenario_id, sweep in result.sweeps.items():
        assert sweep.rows == reference[scenario_id].rows


# --------------------------------------------------------------------------- #
# The chaos matrix
# --------------------------------------------------------------------------- #
#: fault kind -> (spec list, runner kwargs).  ``kill`` SIGKILLs the pool
#: worker running the 2nd measure task; ``raise`` fails it with an
#: exception; ``hang`` wedges it until the task lease expires; ``enospc``
#: fails every sweep-row checkpoint write (persistent -> degradation);
#: ``corrupt`` flips payload bytes of every landed sweep entry (healed on
#: the next run).  All are transient-by-ordinal except where noted, so
#: retries pass the site cleanly.
FAULT_KINDS = {
    "kill": (
        [FaultSpec(site="measure", action="kill", at=2)],
        {"max_retries": 2},
    ),
    "raise": (
        [FaultSpec(site="measure", action="raise", at=2)],
        {"max_retries": 2, "retry_backoff": 0.05},
    ),
    "hang": (
        [FaultSpec(site="measure", action="hang", at=2, seconds=30.0)],
        {"max_retries": 2, "task_timeout": 1.0, "retry_backoff": 0.05},
    ),
    "enospc": (
        [
            FaultSpec(
                site="store.put",
                action="io-error",
                error="ENOSPC",
                match="sweep-row:",
                count=0,
            )
        ],
        {"max_retries": 2},
    ),
    "corrupt": (
        [FaultSpec(site="store.put", action="corrupt", match="sweep:", count=0)],
        {"max_retries": 2},
    ),
}


class TestChaosMatrix:
    """{kill, raise, hang, enospc, corrupt} x {budget 1, 2, 4}: the
    campaign completes bit-identically to a fault-free run with zero
    recomputation of checkpointed work."""

    @pytest.mark.parametrize("budget", [1, 2, 4])
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_faulted_run_matches_reference(
        self, chaos_experiment, chaos_reference, tmp_path, kind, budget
    ):
        reference, reference_calls = chaos_reference
        _, calls_dir = chaos_experiment
        specs, kwargs = FAULT_KINDS[kind]
        store = ResultStore(tmp_path / "store")
        events = []
        with faults.active(specs, tmp_path / "faultstate"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StoreDegradedWarning)
                result = CampaignRunner(
                    chaos_spec(), store, total_workers=budget, **kwargs
                ).run(progress=events.append)

        assert result.quarantined_tasks == 0
        assert_bit_identical(result, reference)
        # Zero recomputation of checkpointed work.  For faults that leave
        # the pool intact every value's measure executes exactly once
        # across all attempts (failed attempts die before the marker).
        # A kill / lease-expiry tears down the whole pool, so up to
        # ``budget - 1`` sibling tasks can lose finished-but-unreturned
        # (hence never-checkpointed) results and re-measure once.
        executed = _count(calls_dir)
        if kind in ("kill", "hang"):
            assert reference_calls <= executed <= reference_calls + budget - 1
        else:
            assert executed == reference_calls

        # No stale staging directories survive the run — dead writers'
        # leftovers are swept before each pool respawn, live writers
        # finish their renames.
        staging = store.root / "staging"
        assert not staging.is_dir() or list(staging.iterdir()) == []

        if kind in ("kill", "raise", "hang"):
            assert any(isinstance(event, TaskFailed) for event in events)
            assert any(isinstance(event, TaskRetried) for event in events)
        if kind == "enospc":
            # Row checkpointing degraded to memory; the campaign said so
            # and still persisted the complete sweeps.
            assert any(isinstance(event, StoreDegraded) for event in events)
            for scenario in chaos_spec().scenarios():
                key = scenario_sweep_key(
                    _REGISTRY[CHAOS_ID], scenario.scale
                )
                assert store.contains(key)

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_corrupted_entries_heal_on_next_run(
        self, chaos_experiment, chaos_reference, tmp_path, budget
    ):
        """A ``corrupt`` fault damages every landed sweep entry; the next
        (fault-free) run quarantines them with provenance and reassembles
        bit-identically from the intact row checkpoints — zero measures."""
        reference, reference_calls = chaos_reference
        _, calls_dir = chaos_experiment
        specs, kwargs = FAULT_KINDS["corrupt"]
        store = ResultStore(tmp_path / "store")
        with faults.active(specs, tmp_path / "faultstate"):
            CampaignRunner(
                chaos_spec(), store, total_workers=budget, **kwargs
            ).run()
        assert _count(calls_dir) == reference_calls

        events = []
        healed = CampaignRunner(chaos_spec(), store).run(progress=events.append)
        assert any(isinstance(event, EntryEvicted) for event in events)
        assert_bit_identical(healed, reference)
        assert _count(calls_dir) == reference_calls  # rebuilt from rows
        # The damaged entries moved aside with provenance, not vanished.
        quarantined = store.quarantined_entries()
        assert quarantined
        provenance = store.entry_provenance(quarantined[0])
        assert provenance is not None and provenance["reason"]


# --------------------------------------------------------------------------- #
# Quarantine semantics
# --------------------------------------------------------------------------- #
PERSISTENT_FAILURE = [
    FaultSpec(site="measure", action="raise", match="side=20", count=0)
]


class TestQuarantine:
    def test_scheduler_quarantines_poison_task_and_continues(
        self, chaos_experiment, chaos_reference, tmp_path
    ):
        """A task that fails on every attempt is quarantined after its
        retries; the rest of the campaign completes, partial results are
        preserved, and status / clean expose and drop the records."""
        reference, _ = chaos_reference
        _, calls_dir = chaos_experiment
        store = ResultStore(tmp_path / "store")
        events = []
        with faults.active(PERSISTENT_FAILURE, tmp_path / "faultstate"):
            result = CampaignRunner(
                chaos_spec(),
                store,
                total_workers=2,
                max_retries=1,
                retry_backoff=0.05,
            ).run(progress=events.append)

        # Both scenarios lost their side=20 value; everything else landed.
        assert result.quarantined_tasks == 2
        assert result.sweeps == {}  # no scenario completed fully
        assert all(outcome.sweep is None for outcome in result.outcomes)
        quarantines = [e for e in events if isinstance(e, TaskQuarantined)]
        assert len(quarantines) == 2
        assert all(event.value == 20.0 for event in quarantines)
        assert all(event.attempts == 2 for event in quarantines)
        # 2 scenarios x values {10, 30} measured; side=20 never succeeded.
        assert _count(calls_dir) == 4

        statuses = CampaignRunner(chaos_spec(), store).status()
        assert all(
            status.state == "partial (2/3, 1 quarantined)"
            for status in statuses
        )
        assert len(store.poison_keys()) == 2

        # The failure cleared, a plain re-run finishes the campaign —
        # measuring only the two missing values — bit-identically.
        resumed = CampaignRunner(chaos_spec(), store, total_workers=2).run()
        assert_bit_identical(resumed, reference)
        assert _count(calls_dir) == 6

        # Poison records linger for post-mortem until clean drops them.
        assert len(store.poison_keys()) == 2
        removed = CampaignRunner(chaos_spec(), store).clean()
        assert store.poison_keys() == []
        assert removed >= 2
        assert all(
            status.state == "missing"
            for status in CampaignRunner(chaos_spec(), store).status()
        )

    def test_default_budget_quarantines_values(
        self, chaos_experiment, tmp_path
    ):
        """Without --total-workers the campaign is supervised per value
        too: the poison value of each scenario is quarantined after its
        retries and every other value lands."""
        _, calls_dir = chaos_experiment
        store = ResultStore(tmp_path / "store")
        events = []
        with faults.active(PERSISTENT_FAILURE, tmp_path / "faultstate"):
            result = CampaignRunner(
                chaos_spec(), store, max_retries=1, retry_backoff=0.05
            ).run(progress=events.append)
        assert result.quarantined_tasks == 2
        assert sum(1 for e in events if isinstance(e, TaskRetried)) == 2
        quarantines = [e for e in events if isinstance(e, TaskQuarantined)]
        assert [event.value for event in quarantines] == [20.0, 20.0]
        # Sides 10 and 30 measured once per scenario; side 20 failed
        # every attempt.
        assert _count(calls_dir) == 4
        statuses = CampaignRunner(chaos_spec(), store).status()
        assert all(
            status.state == "partial (2/3, 1 quarantined)"
            for status in statuses
        )

    def test_task_timeout_works_at_default_budget(
        self, chaos_experiment, chaos_reference, tmp_path
    ):
        """--task-timeout needs no --total-workers: a hung value task at
        the default budget is killed, retried once and lands
        bit-identically."""
        reference, reference_calls = chaos_reference
        _, calls_dir = chaos_experiment
        specs, kwargs = FAULT_KINDS["hang"]
        events = []
        with faults.active(specs, tmp_path / "faultstate"):
            result = CampaignRunner(
                chaos_spec(), ResultStore(tmp_path / "store"), **kwargs
            ).run(progress=events.append)
        assert sum(1 for e in events if isinstance(e, TaskRetried)) == 1
        assert result.quarantined_tasks == 0
        assert_bit_identical(result, reference)
        assert _count(calls_dir) == reference_calls

    def test_default_policy_still_fails_fast(self, chaos_experiment, tmp_path):
        """Without --max-retries the first failure aborts the campaign, at
        the default budget and at budget 2."""
        store = ResultStore(tmp_path / "store")
        with faults.active(PERSISTENT_FAILURE, tmp_path / "fs1"):
            with pytest.raises(InjectedFault):
                CampaignRunner(chaos_spec(), store).run()
        with faults.active(PERSISTENT_FAILURE, tmp_path / "fs2"):
            with pytest.raises(InjectedFault):
                CampaignRunner(
                    chaos_spec(),
                    ResultStore(tmp_path / "store2"),
                    total_workers=2,
                ).run()

    def test_cli_reports_quarantine_and_exits_nonzero(
        self, chaos_experiment, tmp_path, capsys
    ):
        from repro.cli import main

        spec_path = tmp_path / "chaos.json"
        spec_path.write_text(json.dumps({
            "name": "chaos",
            "experiments": [CHAOS_ID],
            "scale": "smoke",
            "overrides": {
                "sides": [10.0, 20.0, 30.0],
                "steps": 1,
                "iterations": 1,
                "stationary_iterations": 1,
            },
            "matrix": {"seed": [1, 2]},
        }))
        store_dir = tmp_path / "store"
        with faults.active(PERSISTENT_FAILURE, tmp_path / "faultstate"):
            code = main([
                "campaign", "run", str(spec_path),
                "--store", str(store_dir),
                "--total-workers", "2",
                "--max-retries", "1",
                "--retry-backoff", "0.05",
                "--quiet",
            ])
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined" in out

        code = main([
            "campaign", "status", str(spec_path), "--store", str(store_dir)
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 quarantined" in out


# --------------------------------------------------------------------------- #
# Store-level behaviour: transient retries, degradation, staging hygiene
# --------------------------------------------------------------------------- #
class TestStoreFaults:
    def test_transient_eio_on_get_is_retried(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("d" * 64, {"metric": 1.0})
        with faults.active(
            [FaultSpec(site="store.get", action="io-error", error="EIO", count=2)],
            tmp_path / "faultstate",
        ):
            assert store.get("d" * 64) == {"metric": 1.0}

    def test_persistent_eio_on_get_propagates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("d" * 64, {"metric": 1.0})
        with faults.active(
            [FaultSpec(site="store.get", action="io-error", error="EIO", count=0)],
            tmp_path / "faultstate",
        ):
            with pytest.raises(OSError):
                store.get("d" * 64)

    def test_transient_eio_on_put_is_retried(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with faults.active(
            [FaultSpec(site="store.put", action="io-error", error="EIO", count=2)],
            tmp_path / "faultstate",
        ):
            store.put("d" * 64, {"metric": 2.0})
        assert store.get("d" * 64) == {"metric": 2.0}

    def test_enospc_is_not_retried_and_propagates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with faults.active(
            [FaultSpec(site="store.put", action="io-error", error="ENOSPC")],
            tmp_path / "faultstate",
        ):
            with pytest.raises(OSError) as excinfo:
                store.put("d" * 64, {"metric": 2.0})
        import errno

        assert excinfo.value.errno == errno.ENOSPC

    def test_sweep_dead_staging_removes_only_dead_writers(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        staging = store.root / "staging"
        staging.mkdir(parents=True, exist_ok=True)
        # A plausibly-unused pid: max_pid + something is never alive.
        dead = staging / "999999999-deadbeef"
        dead.mkdir()
        alive = staging / f"{os.getpid()}-cafebabe"
        alive.mkdir()
        unowned = staging / "tmp-no-pid-prefix"
        unowned.mkdir()
        removed = store.sweep_dead_staging()
        assert removed == 1
        assert not dead.exists()
        assert alive.exists()
        assert unowned.exists()  # age-gated, too young to sweep

    def test_quarantine_entry_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "a" * 64
        store.put(key, {"metric": 3.0})
        assert store.quarantine_entry(key, reason="checksum mismatch")
        assert not store.contains(key)
        assert store.quarantined_entries() == [key]
        provenance = store.entry_provenance(key)
        assert provenance["reason"] == "checksum mismatch"
        assert store.drop_quarantined_entry(key)
        assert store.quarantined_entries() == []

    def test_poison_records_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "b" * 64
        store.record_poison(key, {"error": "boom", "attempts": 3})
        assert store.poison_keys() == [key]
        record = store.poison(key)
        assert record["error"] == "boom" and record["key"] == key
        assert store.clear_poison(key)
        assert store.poison_keys() == []


# --------------------------------------------------------------------------- #
# Telemetry sink faults
# --------------------------------------------------------------------------- #
class TestTelemetryFlushFault:
    """A failing (or full) telemetry sink never fails a campaign.

    The ``telemetry.flush`` site fires on every trace-buffer write: the
    tracer degrades to dropped spans with one warning per process, and
    the campaign completes bit-identically with zero recomputation —
    observability is strictly an observer."""

    @pytest.mark.parametrize("budget", [1, 2])
    def test_flush_io_error_degrades_to_dropped_spans(
        self, chaos_experiment, chaos_reference, tmp_path, budget
    ):
        from repro import telemetry
        from repro.telemetry import report as telemetry_report

        reference, reference_calls = chaos_reference
        _, calls_dir = chaos_experiment
        specs = [
            FaultSpec(site="telemetry.flush", action="io-error", count=0)
        ]
        store = ResultStore(tmp_path / "store")
        with faults.active(specs, tmp_path / "faultstate"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = CampaignRunner(
                    chaos_spec(), store, total_workers=budget
                ).run()

        assert result.quarantined_tasks == 0
        assert_bit_identical(result, reference)
        assert _count(calls_dir) == reference_calls

        # One warning in this process, however many flushes failed.
        degraded = [
            w
            for w in caught
            if issubclass(w.category, telemetry.TelemetryDegradedWarning)
        ]
        assert len(degraded) == 1

        # The run directory exists but every span was dropped; the sealed
        # report still reflects the (successful) campaign outcome.
        run_dir = telemetry_report.latest_run_dir(store.root / "telemetry")
        assert run_dir is not None
        trace = telemetry_report.read_trace(run_dir)
        assert trace["spans"] == [] and trace["bad_lines"] == 0
        built = telemetry_report.load_or_build_report(run_dir)
        assert built["spans"]["count"] == 0
        assert built["outcome"]["quarantined_tasks"] == 0


# --------------------------------------------------------------------------- #
# The fault-injection primitives
# --------------------------------------------------------------------------- #
class TestFaultPrimitives:
    def test_fire_is_noop_without_plan(self):
        assert os.environ.get(faults.ENV_VAR) is None
        assert faults.fire("measure", context="side=10") is None

    def test_ordinals_and_counts(self, tmp_path):
        with faults.active(
            [FaultSpec(site="measure", action="raise", at=2, count=1)],
            tmp_path / "faultstate",
        ):
            assert faults.fire("measure") is None  # ordinal 1 < at
            with pytest.raises(InjectedFault):
                faults.fire("measure")  # ordinal 2 fires
            assert faults.fire("measure") is None  # ordinal 3: spent

    def test_match_pins_to_context(self, tmp_path):
        with faults.active(
            [FaultSpec(site="measure", action="raise", match="side=20", count=0)],
            tmp_path / "faultstate",
        ):
            assert faults.fire("measure", context="side=10") is None
            with pytest.raises(InjectedFault):
                faults.fire("measure", context="side=20")

    def test_corrupt_action_is_returned_not_performed(self, tmp_path):
        with faults.active(
            [FaultSpec(site="store.put", action="corrupt")],
            tmp_path / "faultstate",
        ):
            spec = faults.fire("store.put", context="sweep:abc")
        assert spec is not None and spec.action == "corrupt"

    def test_plan_roundtrip_and_validation(self, tmp_path):
        plan_path = faults.write_plan(
            tmp_path / "plan.json",
            [FaultSpec(site="measure", action="kill", at=3)],
        )
        document = json.loads(plan_path.read_text())
        plan = faults.FaultPlan.from_document(
            document, default_state_dir=str(tmp_path)
        )
        assert plan.faults[0].at == 3
        assert plan.state_dir == str(tmp_path)
        with pytest.raises(ConfigurationError):
            FaultSpec(site="measure", action="explode")
        with pytest.raises(ConfigurationError):
            FaultSpec(site="measure", action="io-error", error="ENOTANERRNO")
        with pytest.raises(ConfigurationError):
            faults.FaultPlan.from_document(
                {"faults": [{"site": "measure", "action": "raise", "bogus": 1}]},
                default_state_dir=str(tmp_path),
            )

    def test_counters_shared_across_processes(self, tmp_path):
        """Each ordinal is observed exactly once campaign-wide: a pool of
        workers racing the same spec between them sees 1..N."""
        import multiprocessing

        with faults.active(
            [FaultSpec(site="measure", action="raise", at=10_000)],
            tmp_path / "faultstate",
        ) as plan_path:
            context = multiprocessing.get_context("fork")
            with context.Pool(4) as pool:
                pool.map(_fire_once, [str(plan_path)] * 32)
        counter = (tmp_path / "faultstate" / "hits-0").read_text()
        assert int(counter) == 32


def _fire_once(plan_path: str) -> None:
    os.environ[faults.ENV_VAR] = plan_path
    faults.fire("measure")


class TestSpuriousBreakGrace:
    """Immediate pool re-breaks with no intervening progress respawn free.

    A freshly respawned ``ProcessPoolExecutor`` is occasionally condemned
    by a CPython teardown race: the manager thread reports a worker
    sentinel ready (``BrokenProcessPool`` with no cause) while every
    worker of the new pool is demonstrably alive — reproducible under
    both the fork and spawn start methods, roughly once per several
    respawns.  Such a break names no culprit, so charging every
    re-enqueued task a retry burns innocent tasks' budgets and can flake
    an otherwise-convergent recovery.  The supervision loop therefore
    grants a bounded number of *uncharged* respawns after the first
    break of a progress epoch; these tests pin both the grace and its
    bound with deterministic fake breaks.
    """

    @staticmethod
    def _broken_future():
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        future.set_exception(
            BrokenProcessPool("simulated spurious executor condemnation")
        )
        return future

    def test_consecutive_breaks_within_grace_are_not_charged(self):
        calls = []
        retried = []

        def submit(pool, task):
            calls.append(task)
            if len(calls) <= 4:
                return self._broken_future()
            future = Future()
            future.set_result(task * 10)
            return future

        results = []
        run_supervised(
            [1],
            budget=1,
            submit=submit,
            on_result=lambda task, result: results.append(result),
            policy=RetryPolicy(max_retries=1, backoff=0.01),
            on_retry=lambda task, error, attempt, delay: retried.append(attempt),
        )
        # Break 1 charges the task's single retry; breaks 2-4 fall inside
        # the grace window and requeue for free; attempt 5 succeeds.  The
        # legacy accounting (every break charges) would have given up
        # after break 2.
        assert results == [10]
        assert calls == [1, 1, 1, 1, 1]
        assert retried == [1]

    def test_grace_is_bounded_for_perpetually_broken_pools(self):
        from concurrent.futures.process import BrokenProcessPool

        calls = []

        def submit(pool, task):
            calls.append(task)
            return self._broken_future()

        with pytest.raises(BrokenProcessPool):
            run_supervised(
                [1],
                budget=1,
                submit=submit,
                on_result=lambda task, result: None,
                policy=RetryPolicy(max_retries=1, backoff=0.01),
            )
        # Charge, three free respawns, charge-and-give-up: a pool that is
        # genuinely poisoned still fails after a bounded number of
        # respawns instead of looping forever.
        assert calls == [1, 1, 1, 1, 1]

    def test_progress_resets_the_grace_epoch(self):
        calls = []
        retried = []

        def submit(pool, task):
            calls.append(task)
            # Breaks at calls 1, 2 and 4: break 1 opens an epoch and is
            # charged, break 2 is an immediate re-break (free), call 3
            # delivers a result, and break 4 — *after* progress — must
            # open a fresh epoch and be charged again, not ride the
            # previous epoch's grace.
            if len(calls) in (1, 2, 4):
                return self._broken_future()
            future = Future()
            future.set_result(task * 10)
            return future

        results = []
        run_supervised(
            [1, 2, 3],
            budget=1,
            submit=submit,
            on_result=lambda task, result: results.append(result),
            policy=RetryPolicy(max_retries=2, backoff=0.01),
            on_retry=lambda task, error, attempt, delay: retried.append((task, attempt)),
        )
        assert sorted(results) == [10, 20, 30]
        assert calls == [1, 2, 3, 1, 2, 1]
        # Task 1 was charged for break 1 (epoch 1) and break 4 (epoch 2,
        # opened by task 3's result); task 2's break rode the grace.
        assert retried == [(1, 1), (1, 2)]


def _pause_and_echo(task):
    time.sleep(0.02)
    return task


class TestInFlightBudget:
    """Every task occupies one worker: ``submit(pool, task)`` returns a
    plain future, and at most ``budget`` of them are in flight at once."""

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_in_flight_tasks_never_exceed_the_budget(self, budget):
        in_flight = []
        peaks = []
        results = {}

        def submit(pool, task):
            in_flight.append(task)
            peaks.append(len(in_flight))
            return pool.submit(_pause_and_echo, task)

        def on_result(task, result):
            in_flight.remove(task)
            results[task] = result

        run_supervised(
            list(range(7)), budget=budget, submit=submit, on_result=on_result
        )
        assert results == {task: task for task in range(7)}
        # The first wave fills the budget exactly; later waves refill it.
        assert max(peaks) == budget
        assert not in_flight
