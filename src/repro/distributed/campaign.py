"""Campaign fan-out over the work queue (``campaign serve``).

:class:`DistributedCampaign` is the :class:`~repro.campaigns.scheduler.
CampaignScheduler` with its local process pool swapped for the HTTP
work queue: the same grid decomposition, the same per-value task
closures, and — through the scheduler's extracted disposition handlers —
the same row saving, retry/quarantine reporting and poison records.
Only the transport differs, which is what makes an N-worker loopback
run bit-identical to the single-host scheduler.

Determinism and fault tolerance follow from three rules:

* a task's payload is the value task the scheduler's ``_submit`` would
  give its pool, encoded by :func:`repro.distributed.worker.encode_task`
  with the measure bound to a checkpoint on the :class:`~repro.
  distributed.remote_store.RemoteResultStore` so worker-side iteration
  sub-entries land in the server's store;
* results are applied in the serving process by the scheduler's own
  ``_handle_result`` — rows are saved through the *local* checkpoint,
  so the store keys and row bytes are exactly the scheduler's;
* failures (published errors and expired leases of silent workers) are
  charged by the queue under the campaign's ``RetryPolicy`` and land
  here as ``retried``/``giveup`` events, feeding the scheduler's own
  ``_handle_retry`` / ``_handle_giveup`` — including the verbatim
  store poison records.  With an unsupervised policy (no retries), the
  first give-up aborts the campaign, like the local scheduler.
"""

from __future__ import annotations

import pickle
import queue as queue_module
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.campaigns.progress import ProgressEvent
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.scheduler import CampaignScheduler, _SweepJob
from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ReproError
from repro.store.result_store import ResultStore

from repro.distributed.queue import WorkQueue
from repro.distributed.remote_store import RemoteResultStore
from repro.distributed.server import ResultServer
from repro.distributed.worker import encode_task

__all__ = ["DistributedCampaign", "RemoteTaskError", "serve_campaign"]

#: Seconds the event loop blocks per wait before ticking lease expiry.
_TICK_SECONDS = 0.2


class RemoteTaskError(ReproError):
    """A distributed task failed under a fail-fast (no-retry) policy."""


class DistributedCampaign(CampaignScheduler):
    """Scheduler variant executing through a :class:`WorkQueue`.

    Args:
        runner: the campaign runner (spec, store, retry knobs).
        work_queue: the queue the result server exposes; its policy
            should be ``runner.retry_policy`` (``serve_campaign`` wires
            this up).
        remote_store: the server's own URL as a store client; worker
            task closures carry checkpoints bound to it.
    """

    def __init__(
        self,
        runner: CampaignRunner,
        work_queue: WorkQueue,
        remote_store: RemoteResultStore,
    ) -> None:
        # total_workers=1: the budget sizes a local pool, which doesn't
        # exist here — the attached workers set the width.
        super().__init__(runner, total_workers=1)
        self.work_queue = work_queue
        self.remote_store = remote_store

    # ------------------------------------------------------------------ #
    def _task_payload(self, job: _SweepJob, index: int) -> bytes:
        """The encoded value task a worker must run for ``(job, index)``.

        Mirrors the scheduler's ``_submit``, except that the measure's
        checkpoint is bound to the remote store: a worker has no path to
        the server's disk, but the HTTP store addresses the very same
        entries.
        """
        return encode_task(
            job.experiment,
            job.scenario.scale,
            job.checkpoint.with_store(self.remote_store),
            job.values[index],
            parent=self._spans.get(job.key),
        )

    def _execute(
        self, jobs: list, say: Callable[[ProgressEvent], None]
    ) -> None:
        """Enqueue every runnable task, then drain queue dispositions."""
        tasks = self._queue(jobs)
        inflight: Dict[str, Tuple[_SweepJob, int]] = {}
        for ordinal, (job, index) in enumerate(tasks):
            task_id = f"{job.key[:12]}.{index}.{ordinal}"
            self.work_queue.add(task_id, self._task_payload(job, index))
            inflight[task_id] = (job, index)
        self.work_queue.seal()
        if not tasks:
            return
        while not self.work_queue.done():
            self.work_queue.expire()
            try:
                event = self.work_queue.events.get(timeout=_TICK_SECONDS)
            except queue_module.Empty:
                continue
            self._apply(event, inflight, say)
        # done() flips when the last publish lands, which may leave its
        # (already enqueued) disposition unread — drain the stragglers.
        while True:
            try:
                event = self.work_queue.events.get_nowait()
            except queue_module.Empty:
                return
            self._apply(event, inflight, say)

    def _apply(
        self,
        event: Tuple[Any, ...],
        inflight: Dict[str, Tuple[_SweepJob, int]],
        say: Callable[[ProgressEvent], None],
    ) -> None:
        kind, task_id = event[0], event[1]
        task = inflight.get(task_id)
        if task is None:
            return  # a queue this driver did not populate
        if kind == "result":
            result = pickle.loads(event[2])
            self._handle_result(task, result, say)
        elif kind == "retried":
            _, _, error, attempt, delay = event
            self._handle_retry(task, error, attempt, delay, say)
        elif kind == "giveup":
            _, _, error, attempts = event
            if not self.runner.retry_policy.supervised:
                raise RemoteTaskError(str(error))
            self._handle_giveup(task, error, attempts, say)


def serve_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_seconds: float = 30.0,
    max_retries: Optional[int] = None,
    retry_backoff: Optional[float] = None,
    telemetry_enabled: Optional[bool] = None,
    resume: bool = True,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    url_file: Optional[Path] = None,
    on_ready: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run a campaign as the serving side of a distributed fan-out.

    Starts the result server (store + work queue) on ``host:port``,
    announces the resolved URL (``url_file`` and/or ``on_ready`` — with
    ``port=0`` the OS picks it), then drives the campaign through
    :class:`DistributedCampaign` until every scenario completes, was
    served from cache, or quarantined.  The drive is the local runner's
    own (telemetry run, ``campaign`` span marked ``distributed``, run
    report); only the scheduler differs.  The server stops when the
    campaign does; lingering workers observe the vanished server as a
    finished queue.  Returns the same :class:`CampaignResult` the local
    runner would.
    """
    runner = CampaignRunner(
        spec,
        store,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        telemetry=telemetry_enabled,
    )
    work_queue = WorkQueue(
        policy=runner.retry_policy, lease_seconds=lease_seconds
    )
    server = ResultServer(store, work_queue, host=host, port=port).start()
    try:
        if url_file is not None:
            Path(url_file).write_text(server.url + "\n", encoding="utf-8")
        if on_ready is not None:
            on_ready(server.url)
        scheduler = DistributedCampaign(
            runner, work_queue, RemoteResultStore(server.url)
        )
        return runner._drive(scheduler, resume, progress, distributed=True)
    finally:
        server.stop()
