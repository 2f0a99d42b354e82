"""End-to-end distributed campaigns: serve + real worker processes.

The acceptance bar of the distributed PR, exercised for real: an
N-worker loopback run must be **bit-identical** to the single-host
scheduler — the same store keys, the same entry payload bytes, the same
sweep rows — and must survive a worker *process group* SIGKILLed while
holding a lease, with zero lost and zero duplicated measure work
(counted by the marker-file protocol of ``tests/campaigns/test_faults``:
each successful measure execution leaves exactly one marker file, in
whatever process it ran).
"""

import base64
import glob
import multiprocessing
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.campaigns.progress import TaskQuarantined, TaskRetried
from repro.campaigns.runner import scenario_payload
from repro.distributed import serve_campaign
from repro.distributed import server as server_module
from repro.distributed.campaign import RemoteTaskError
from repro.distributed.worker import (
    QueueClient,
    _decode_task,
    encode_task,
    run_worker,
)
from repro.experiments import figures
from repro.experiments.registry import (
    _REGISTRY,
    Experiment,
    ExperimentScale,
    get_experiment,
    register_experiment,
)
from repro.faults import FaultSpec, write_plan
from repro.simulation.sweep import measure_row
from repro.store import ResultStore, StoreSweepCheckpoint
from repro.telemetry import metrics, report

DIST_ID = "dist-test-exp"

#: Mutable module config read when the measure is constructed (in the
#: serving parent; the constructed measure pickles into worker tasks).
DIST = {"calls_dir": None}


def _mark(calls_dir, prefix):
    with open(os.path.join(calls_dir, f"{prefix}-{uuid.uuid4().hex}"), "w"):
        pass


def _count(calls_dir, prefix="measure"):
    return len(glob.glob(os.path.join(calls_dir, f"{prefix}-*")))


@dataclass(frozen=True)
class DistMeasure:
    """Picklable measure leaving one marker per successful execution.

    The ``measure`` fault site fires before this body runs, and the
    distributed ``queue.lease`` / ``queue.publish`` sites bracket it in
    the worker — so a worker killed at any of those sites leaves either
    no marker (died before measuring) or exactly one (died after), and
    the total marker count across *all* processes equals the number of
    completed measure executions.
    """

    seed: int
    calls_dir: str

    def __call__(self, value: float) -> Dict[str, float]:
        _mark(self.calls_dir, f"measure-{self.seed}")
        return {
            "metric": value * 2.0 + self.seed,
            "root": float(value**0.5) + self.seed,
        }


def _dist_measure(scale: ExperimentScale) -> DistMeasure:
    return DistMeasure(seed=scale.seed or 0, calls_dir=DIST["calls_dir"])


@pytest.fixture
def dist_experiment(tmp_path):
    calls_dir = tmp_path / "calls"
    calls_dir.mkdir()
    DIST["calls_dir"] = str(calls_dir)
    experiment = register_experiment(
        Experiment(
            identifier=DIST_ID,
            title="Distributed test experiment",
            description="Counts successful measures for the loopback tests.",
            paper_reference="(test only)",
            parameter_name="side",
            sweep_measure=_dist_measure,
        )
    )
    yield experiment, str(calls_dir)
    _REGISTRY.pop(DIST_ID, None)


def dist_spec():
    return CampaignSpec.from_dict({
        "name": "dist",
        "experiments": [DIST_ID],
        "scale": "smoke",
        "overrides": {
            "sides": [10.0, 20.0, 30.0],
            "steps": 1,
            "iterations": 1,
            "stationary_iterations": 1,
        },
        "matrix": {"seed": [1, 2]},
    })


def store_fingerprint(store):
    """key -> payload sha256: the byte-level identity of a store."""
    return {key: store.entry(key)["payload_sha256"] for key in store.keys()}


def assert_bit_identical(result, reference):
    assert result.sweeps.keys() == reference.sweeps.keys()
    for scenario_id, sweep in result.sweeps.items():
        assert sweep.rows == reference.sweeps[scenario_id].rows


# --------------------------------------------------------------------------- #
# Worker process management (fork: workers inherit the test registry)
# --------------------------------------------------------------------------- #
def _worker_main(url, environment, new_process_group):
    if environment:
        os.environ.update(environment)
    # A worker forked from the serving test process inherits the server's
    # listening socket.  The serve's stop() shuts that socket down and
    # every live keep-alive connection with it, so a worker still polling
    # sees "server left" at once; the short HTTP timeout only bounds how
    # long a regression of that would hang a test.
    run_worker(
        url,
        poll_interval=0.05,
        new_process_group=new_process_group,
        timeout=5.0,
    )


def start_worker(url, environment=None, new_process_group=False):
    process = multiprocessing.get_context("fork").Process(
        target=_worker_main, args=(url, environment, new_process_group)
    )
    process.start()
    return process


def reap(workers, timeout=60.0):
    """Join every worker within ``timeout`` seconds of the call in total."""
    deadline = time.monotonic() + timeout
    for process in workers:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
            raise AssertionError("worker did not exit after the campaign")


#: Seconds within which workers exit once ``serve_campaign`` returns: the
#: queue's final publish answers a held lease with "done", and the
#: server's stop refuses whatever polls after that.
PROMPT_EXIT = 1.0


# --------------------------------------------------------------------------- #
class TestLoopbackFanOut:
    def test_two_worker_run_bit_identical_to_scheduler(
        self, dist_experiment, tmp_path
    ):
        _, calls_dir = dist_experiment
        local_store = ResultStore(tmp_path / "local")
        local_result = CampaignRunner(dist_spec(), local_store).run()
        local_markers = _count(calls_dir)
        assert local_markers == 6  # 3 sides x 2 seeds, nothing retried

        workers = []
        dist_store = ResultStore(tmp_path / "dist")
        result = serve_campaign(
            dist_spec(),
            dist_store,
            max_retries=2,
            retry_backoff=0.05,
            telemetry_enabled=False,
            on_ready=lambda url: workers.extend(
                start_worker(url) for _ in range(2)
            ),
        )
        reap(workers, timeout=PROMPT_EXIT)

        assert_bit_identical(result, local_result)
        # Same store keys, same entry bytes: the distributed transport
        # is invisible in the artifacts.
        assert store_fingerprint(dist_store) == store_fingerprint(local_store)
        # Zero lost, zero duplicated measure work.
        assert _count(calls_dir) - local_markers == local_markers

    def test_warm_serve_rerun_recomputes_nothing(
        self, dist_experiment, tmp_path
    ):
        _, calls_dir = dist_experiment
        store = ResultStore(tmp_path / "store")
        workers = []
        first = serve_campaign(
            dist_spec(),
            store,
            max_retries=2,
            retry_backoff=0.05,
            telemetry_enabled=False,
            on_ready=lambda url: workers.append(start_worker(url)),
        )
        reap(workers, timeout=PROMPT_EXIT)
        assert first.computed_values == 6
        markers = _count(calls_dir)

        # Warm re-serve with NO workers: every scenario is answered from
        # the store before any task would be enqueued, so the drive
        # finishes against an empty (sealed) queue.
        second = serve_campaign(
            dist_spec(), store, telemetry_enabled=False
        )
        assert second.computed_values == 0
        assert second.cache_hits == len(first.outcomes) == 2
        assert _count(calls_dir) == markers
        assert_bit_identical(second, first)


class TestTaskWireFormat:
    def test_a_decoded_task_returns_measure_rows_row(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "wire",
            "experiments": ["fig2"],
            "scale": "smoke",
            "overrides": {
                "sides": [256.0],
                "steps": 8,
                "iterations": 1,
                "stationary_iterations": 15,
            },
        })
        (scenario,) = spec.scenarios()
        experiment = get_experiment("fig2")
        checkpoint = StoreSweepCheckpoint(
            ResultStore(tmp_path / "store"),
            scenario_payload(experiment, scenario.scale),
        )
        payload = encode_task(experiment, scenario.scale, checkpoint, 256.0)
        task_id, lease_seconds, function, args, kwargs = _decode_task({
            "task": "t-1",
            "lease_seconds": 7.5,
            "payload": base64.b64encode(payload).decode("ascii"),
        })
        assert (task_id, lease_seconds) == ("t-1", 7.5)
        assert function is measure_row  # telemetry is off: no span shim
        expected = measure_row(
            "l", experiment.sweep_measure(scenario.scale), 256.0
        )
        assert function(*args, **kwargs) == expected
        assert [expected] == experiment.run(scenario.scale).rows


class TestServedTelemetry:
    def test_served_run_reports_worker_task_spans(self, dist_experiment, tmp_path):
        """``campaign serve`` records one telemetry run, like ``campaign
        run``: the ``campaign`` span marked distributed, one ``scenario``
        span per scenario, and the workers' ``task`` spans under them.

        Workers fork once the queue is sealed, when the serving process
        has armed its run, so they inherit its trace directory.
        """
        store = ResultStore(tmp_path / "store")
        workers = []
        forked = []

        def fork_when_sealed(url):
            client = QueueClient(url)
            deadline = time.monotonic() + 30.0
            while not client.stats().get("sealed"):
                assert time.monotonic() < deadline, "the queue never sealed"
                time.sleep(0.01)
            workers.extend([start_worker(url), start_worker(url)])

        def on_ready(url):
            thread = threading.Thread(
                target=fork_when_sealed, args=(url,), daemon=True
            )
            thread.start()
            forked.append(thread)

        result = serve_campaign(
            dist_spec(), store, max_retries=2, retry_backoff=0.05,
            on_ready=on_ready,
        )
        for thread in forked:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        reap(workers, timeout=PROMPT_EXIT)
        assert result.computed_values == 6

        (run_dir,) = report.list_runs(store.root / "telemetry")
        sealed = report.load_or_build_report(run_dir)
        counts = {
            name: bucket["count"]
            for name, bucket in sealed["spans"]["by_name"].items()
        }
        assert counts["campaign"] == 1
        assert counts["scenario"] == 2
        assert counts["task"] == 6
        assert sealed["outcome"]["computed_values"] == 6

        spans = report.read_trace(run_dir)["spans"]
        by_id = {span["span"]: span for span in spans}
        (campaign,) = [s for s in spans if s["name"] == "campaign"]
        assert campaign["parent"] is None
        assert campaign["attrs"]["distributed"] is True
        for scenario in [s for s in spans if s["name"] == "scenario"]:
            assert scenario["parent"] == campaign["span"]
        tasks = [s for s in spans if s["name"] == "task"]
        assert {by_id[t["parent"]]["name"] for t in tasks} == {"scenario"}
        assert campaign["pid"] not in {t["pid"] for t in tasks}


class TestRequestsPerTask:
    def test_small_figure_values_make_no_iteration_requests(
        self, tmp_path, monkeypatch
    ):
        """A small Figs 7-9 grid: each task is one lease and one publish.

        Its values sit far below the iteration-checkpoint threshold, so
        the worker never asks the server for an iteration entry (``HEAD``)
        nor writes one (``PUT``).  Requests are counted where the server
        routes them; the workers are forked after the patch but only the
        serving process routes.
        """
        requests = []
        dispatch = server_module._Handler._dispatch

        def counting(handler, method):
            requests.append((method, handler.path.split("?", 1)[0]))
            return dispatch(handler, method)

        monkeypatch.setattr(server_module._Handler, "_dispatch", counting)
        spec = CampaignSpec.from_dict({
            "name": "small-figs",
            "experiments": ["fig7", "fig8", "fig9"],
            "scale": "smoke",
            "overrides": {
                "steps": 5,
                "iterations": 2,
                "stationary_iterations": 2,
                "parameter_points": 2,
            },
        })
        workers = []
        result = serve_campaign(
            spec,
            ResultStore(tmp_path / "store"),
            telemetry_enabled=False,
            on_ready=lambda url: workers.append(start_worker(url)),
        )
        reap(workers, timeout=PROMPT_EXIT)
        assert result.computed_values == 6
        assert [r for r in requests if r[1].startswith("/objects/")] == []
        assert requests.count(("POST", "/queue/publish")) == 6


class TestRemoteIterationCheckpoints:
    """A checkpointed value's iterations cross the wire as store objects.

    The checkpoint threshold is lowered before the worker forks, so one
    small fig2 value (3 iterations) writes an iteration entry per
    iteration through the worker's :class:`RemoteResultStore`.  Replies
    are recorded where the serving process sends them; only the
    iteration checkpoint touches ``/objects/`` and ``/quarantine/``.
    """

    SIDE = 256.0

    @pytest.fixture
    def replies(self, monkeypatch):
        monkeypatch.setattr(figures, "CHECKPOINT_MIN_NODE_FRAMES", 1)
        sent = []
        send_response = server_module._Handler.send_response

        def recording(handler, code, message=None):
            path = handler.path.split("?", 1)[0]
            if path.startswith(("/objects/", "/quarantine/")):
                sent.append((handler.command, path, int(code)))
            send_response(handler, code, message)

        monkeypatch.setattr(server_module._Handler, "send_response", recording)
        return sent

    def spec(self):
        return CampaignSpec.from_dict({
            "name": "remote-iterations",
            "experiments": ["fig2"],
            "scale": "smoke",
            "overrides": {
                "sides": [self.SIDE],
                "steps": 20,
                "iterations": 3,
                "stationary_iterations": 5,
            },
        })

    def iteration_paths(self, store, scenario):
        experiment = get_experiment(scenario.experiment_id)
        checkpoint = StoreSweepCheckpoint(
            store, scenario_payload(experiment, scenario.scale), iterations=3
        )
        return [f"/objects/{key}" for key in checkpoint.iteration_keys_for(self.SIDE)]

    def serve(self, store, tmp_path, max_retries, fault_at=None):
        environment = None
        if fault_at is not None:
            plan_dir = tmp_path / f"faults-{uuid.uuid4().hex}"
            plan_dir.mkdir()
            plan = write_plan(
                plan_dir / "plan.json",
                [FaultSpec(site="iteration", action="raise", at=fault_at)],
            )
            environment = {"REPRO_FAULTS": str(plan)}
        workers = []
        try:
            return serve_campaign(
                self.spec(),
                store,
                max_retries=max_retries,
                retry_backoff=0.05,
                telemetry_enabled=False,
                on_ready=lambda url: workers.append(
                    start_worker(url, environment=environment)
                ),
            )
        finally:
            reap(workers, timeout=PROMPT_EXIT)

    def assert_row_is_the_reference(self, result, scenario):
        reference = get_experiment("fig2").run(scenario.scale)
        assert result.sweeps[scenario.scenario_id].rows == reference.rows

    def test_retry_reads_stored_iterations_over_http(self, replies, tmp_path):
        (scenario,) = self.spec().scenarios()
        store = ResultStore(tmp_path / "store")
        first, second, third = self.iteration_paths(store, scenario)
        result = self.serve(store, tmp_path, max_retries=1, fault_at=3)
        assert replies == [
            ("HEAD", first, 404), ("PUT", first, 200),
            ("HEAD", second, 404), ("PUT", second, 200),
            ("HEAD", third, 404),  # the fault fires before the 3rd iteration
            ("HEAD", first, 200), ("GET", first, 200),
            ("HEAD", second, 200), ("GET", second, 200),
            ("HEAD", third, 404), ("PUT", third, 200),
        ]
        self.assert_row_is_the_reference(result, scenario)

    def test_corrupt_iteration_entry_is_quarantined_and_recomputed(
        self, replies, tmp_path
    ):
        (scenario,) = self.spec().scenarios()
        store = ResultStore(tmp_path / "store")
        first, second, third = self.iteration_paths(store, scenario)
        with pytest.raises(RemoteTaskError):
            self.serve(store, tmp_path, max_retries=0, fault_at=3)
        damaged = first.rsplit("/", 1)[1]
        payload_file = store.entry(damaged)["payload_file"]
        (store.root / "objects" / damaged[:2] / damaged / payload_file).write_bytes(
            b"garbage"
        )
        replies.clear()

        result = self.serve(store, tmp_path, max_retries=0)
        assert replies == [
            ("HEAD", first, 200), ("GET", first, 422),
            ("POST", f"/quarantine/{damaged}", 200), ("PUT", first, 200),
            ("HEAD", second, 200), ("GET", second, 200),
            ("HEAD", third, 404), ("PUT", third, 200),
        ]
        assert store.quarantined_entries() == [damaged]
        self.assert_row_is_the_reference(result, scenario)


class TestLeaseRecovery:
    def test_sigkilled_worker_process_group_mid_lease(
        self, dist_experiment, tmp_path
    ):
        """SIGKILL a whole worker process group while it holds a lease.

        Worker A arms a ``queue.lease`` hang fault (600 s, every hit) in
        its own environment only, so it wedges the moment its first
        lease is granted — before any measure runs.  A monitor thread
        watches the queue stats, SIGKILLs A's process group once the
        lease is held, then starts the healthy worker B.  The expired
        lease must be re-enqueued and the campaign must finish
        bit-identically with zero lost or duplicated measure work.
        """
        _, calls_dir = dist_experiment
        local_store = ResultStore(tmp_path / "local")
        local_result = CampaignRunner(dist_spec(), local_store).run()
        local_markers = _count(calls_dir)

        plan_dir = tmp_path / "faultplan"
        plan_dir.mkdir()
        plan = write_plan(
            plan_dir / "plan.json",
            [FaultSpec(site="queue.lease", action="hang", seconds=600.0, count=0)],
        )
        workers = []
        events = []

        def monitor(url):
            hung = start_worker(
                url,
                environment={"REPRO_FAULTS": str(plan)},
                new_process_group=True,
            )
            workers.append(hung)
            client = QueueClient(url)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.stats().get("leased", 0) >= 1:
                    break
                time.sleep(0.05)
            # A is wedged inside the fault hook, holding its lease; kill
            # its entire process group, modelling a vanished host.
            os.killpg(os.getpgid(hung.pid), signal.SIGKILL)
            workers.append(start_worker(url))

        def on_ready(url):
            threading.Thread(target=monitor, args=(url,), daemon=True).start()

        dist_store = ResultStore(tmp_path / "dist")
        result = serve_campaign(
            dist_spec(),
            dist_store,
            lease_seconds=1.0,
            max_retries=2,
            retry_backoff=0.05,
            telemetry_enabled=False,
            on_ready=on_ready,
            progress=events.append,
        )
        reap(workers)

        expiries = [
            event
            for event in events
            if isinstance(event, TaskRetried) and "lease expired" in event.error
        ]
        assert expiries, "the killed worker's lease never expired"
        assert_bit_identical(result, local_result)
        assert store_fingerprint(dist_store) == store_fingerprint(local_store)
        # A died before its measure ran, B recomputed it exactly once:
        # the distributed marker count equals the healthy reference's.
        assert _count(calls_dir) - local_markers == local_markers
        assert result.quarantined_tasks == 0

    def test_fault_killed_worker_recovers_via_expiry(
        self, dist_experiment, tmp_path
    ):
        # The pure repro.faults variant: worker A SIGKILLs itself the
        # moment its first lease is granted (site ``queue.lease``,
        # action ``kill``); worker B, fault-free, drains everything.
        _, calls_dir = dist_experiment
        plan_dir = tmp_path / "faultplan"
        plan_dir.mkdir()
        plan = write_plan(
            plan_dir / "plan.json",
            [FaultSpec(site="queue.lease", action="kill", at=1)],
        )
        workers = []

        def on_ready(url):
            workers.append(
                start_worker(url, environment={"REPRO_FAULTS": str(plan)})
            )
            workers.append(start_worker(url))

        store = ResultStore(tmp_path / "store")
        result = serve_campaign(
            dist_spec(),
            store,
            lease_seconds=1.0,
            max_retries=2,
            retry_backoff=0.05,
            telemetry_enabled=False,
            on_ready=on_ready,
        )
        reap(workers)
        assert result.computed_values == 6
        assert result.quarantined_tasks == 0
        assert _count(calls_dir) == 6


class TestLeaseRenewal:
    def test_heartbeats_hold_the_lease_of_a_long_task(self, tmp_path):
        """A task that runs for three lease periods keeps its one lease.

        The worker hangs 3 s at the ``measure`` site under a 1 s lease,
        so only its heartbeats (``QueueClient.heartbeat``, every third of
        a lease) keep the task leased.  With no retries allowed, a single
        expiry would abort the serve.
        """
        spec = CampaignSpec.from_dict({
            "name": "lease-renewal",
            "experiments": ["fig2"],
            "scale": "smoke",
            "overrides": {
                "sides": [256.0],
                "steps": 8,
                "iterations": 1,
                "stationary_iterations": 5,
            },
        })
        (scenario,) = spec.scenarios()
        plan_dir = tmp_path / "faultplan"
        plan_dir.mkdir()
        plan = write_plan(
            plan_dir / "plan.json",
            [FaultSpec(site="measure", action="hang", seconds=3.0)],
        )
        workers = []
        events = []
        metrics.drain()
        started = time.monotonic()
        result = serve_campaign(
            spec,
            ResultStore(tmp_path / "store"),
            lease_seconds=1.0,
            max_retries=0,
            telemetry_enabled=False,
            progress=events.append,
            on_ready=lambda url: workers.append(
                start_worker(url, environment={"REPRO_FAULTS": str(plan)})
            ),
        )
        reap(workers, timeout=PROMPT_EXIT)
        assert time.monotonic() - started >= 3.0  # the hang ran
        assert result.computed_values == 1
        assert [e for e in events if isinstance(e, TaskRetried)] == []
        assert "queue.lease_expiries" not in metrics.drain()
        reference = get_experiment("fig2").run(scenario.scale)
        assert result.sweeps[scenario.scenario_id].rows == reference.rows


class TestFailureDispositions:
    def test_unsupervised_policy_fails_fast(self, dist_experiment, tmp_path):
        # A task failure under max_retries=0 aborts the serve, exactly
        # like the local scheduler's fail-fast path.
        _, calls_dir = dist_experiment
        plan_dir = tmp_path / "faultplan"
        plan_dir.mkdir()
        plan = write_plan(
            plan_dir / "plan.json",
            [FaultSpec(site="measure", action="raise", count=0)],
        )
        workers = []
        store = ResultStore(tmp_path / "store")
        with pytest.raises(RemoteTaskError):
            serve_campaign(
                dist_spec(),
                store,
                max_retries=0,
                telemetry_enabled=False,
                on_ready=lambda url: workers.append(
                    start_worker(url, environment={"REPRO_FAULTS": str(plan)})
                ),
            )
        reap(workers, timeout=PROMPT_EXIT)

    def test_exhausted_retries_quarantine_with_poison_records(
        self, dist_experiment, tmp_path
    ):
        # A persistent failure burns the retry budget, and the giveup
        # lands as the scheduler's own quarantine disposition: a poison
        # record in the store (verbatim fields) plus a TaskQuarantined
        # progress event — the campaign completes around it.
        _, calls_dir = dist_experiment
        plan_dir = tmp_path / "faultplan"
        plan_dir.mkdir()
        plan = write_plan(
            plan_dir / "plan.json",
            [FaultSpec(site="measure", action="raise", match="side=10", count=0)],
        )
        workers = []
        events = []
        store = ResultStore(tmp_path / "store")
        result = serve_campaign(
            dist_spec(),
            store,
            max_retries=1,
            retry_backoff=0.05,
            telemetry_enabled=False,
            progress=events.append,
            on_ready=lambda url: workers.append(
                start_worker(url, environment={"REPRO_FAULTS": str(plan)})
            ),
        )
        reap(workers, timeout=PROMPT_EXIT)
        quarantined = [e for e in events if isinstance(e, TaskQuarantined)]
        assert len(quarantined) == 2  # side=10 in both seed scenarios
        assert result.quarantined_tasks == 2
        poison_keys = store.poison_keys()
        assert len(poison_keys) == 2
        for key in poison_keys:
            record = store.poison(key)
            assert record["campaign"] == "dist"
            assert record["attempts"] == 2
            assert "InjectedFault" in record["error"]
        # The healthy values still completed and checkpointed.
        assert result.computed_values == 4
