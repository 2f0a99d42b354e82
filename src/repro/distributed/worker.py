"""The pull-based campaign worker (``campaign work --server URL``).

A worker is a loop: lease one task, heartbeat while computing it,
publish the result (or the error), repeat until the server says the
queue is drained — or stops answering, which after a first successful
contact means the campaign finished and the server left.  While no task
is ready the server holds the lease request open (a long poll) and
answers the moment one is, so an idle worker never sleeps past new
work; every request of a thread reuses one keep-alive connection.

Tasks arrive as pickled ``(function, args, kwargs)`` closures — exactly
the callables the in-process campaign scheduler would submit to its
pool, so executing them here reproduces the scheduler's results
bit-identically.  :func:`encode_task` is the one producer of that wire
format (the campaign server's tasks and the query service's refinements
both go through it) and ``_decode_task`` its one reader.  Checkpoints
bound into those closures write through the :class:`~repro.distributed.
remote_store.RemoteResultStore`, so iteration sub-entries land in the
server-side store as the task runs.

Two fault-injection sites bracket each task for chaos tests
(:mod:`repro.faults`): ``queue.lease`` fires the moment a lease is
granted — a ``kill`` there dies *holding a fresh lease*, the worst
silent-host case — and ``queue.publish`` fires after the task computed
but before its result is published, the window where finished work
hangs on lease expiry for recovery.
"""

from __future__ import annotations

import base64
import os
import pickle
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro import faults, telemetry
from repro.distributed.remote_store import RemoteResultStore, RemoteStoreError
from repro.simulation.sweep import measure_row

__all__ = ["QueueClient", "encode_task", "run_worker"]

#: Seconds a worker keeps retrying its *first* contact before giving up
#: (the server of a freshly launched campaign may still be binding).
CONNECT_GRACE_SECONDS = 30.0


class QueueClient:
    """Queue-verb client; shares the store client's HTTP plumbing."""

    def __init__(self, url: str, timeout: Optional[float] = None) -> None:
        self._store = (
            RemoteResultStore(url)
            if timeout is None
            else RemoteResultStore(url, timeout=timeout)
        )
        self.url = self._store.url

    def lease(self, worker: str) -> Dict[str, Any]:
        return self._store._json("POST", "/queue/lease", {"worker": worker})

    def heartbeat(self, task_id: str, worker: str) -> bool:
        return bool(
            self._store._json(
                "POST",
                "/queue/heartbeat",
                {"task": task_id, "worker": worker},
            ).get("ok")
        )

    def publish_result(self, task_id: str, worker: str, payload: bytes) -> bool:
        return bool(
            self._store._json(
                "POST",
                "/queue/publish",
                {
                    "task": task_id,
                    "worker": worker,
                    "result": base64.b64encode(payload).decode("ascii"),
                },
            ).get("ok")
        )

    def publish_error(self, task_id: str, worker: str, error: str) -> bool:
        return bool(
            self._store._json(
                "POST",
                "/queue/publish",
                {"task": task_id, "worker": worker, "error": error},
            ).get("ok")
        )

    def stats(self) -> Dict[str, Any]:
        return self._store._json("GET", "/queue/stats")


class _Heartbeat:
    """Background lease renewal at a third of the lease period."""

    def __init__(
        self, client: QueueClient, task_id: str, worker: str, lease_seconds: float
    ) -> None:
        self._client = client
        self._task_id = task_id
        self._worker = worker
        self._interval = max(0.1, lease_seconds / 3.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{task_id}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._client.heartbeat(self._task_id, self._worker):
                    return  # lease already lost; nothing left to renew
            except Exception:
                return  # server gone; the expiry machinery takes over

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def encode_task(
    experiment: Any,
    scale: Any,
    checkpoint: Any,
    value: float,
    parent: Any = None,
) -> bytes:
    """The wire payload of one value task: a pickled ``measure_row`` call.

    The worker runs ``measure_row(parameter_name, measure, value)`` with
    ``experiment``'s measure at ``scale`` bound to ``checkpoint`` (which
    must address a store the worker can reach).  ``parent`` is the span
    the worker's ``task`` span parents under; with telemetry inactive
    the function is ``measure_row`` itself.
    """
    return pickle.dumps(
        (
            telemetry.propagate(measure_row, parent=parent),
            (
                experiment.parameter_name,
                experiment.measure_for(scale, checkpoint),
                value,
            ),
            {},
        )
    )


def _decode_task(grant: Dict[str, Any]) -> Tuple[str, float, Any, tuple, dict]:
    task_id = str(grant["task"])
    lease_seconds = float(grant.get("lease_seconds", 30.0))
    payload = base64.b64decode(str(grant["payload"]))
    function, args, kwargs = pickle.loads(payload)
    return task_id, lease_seconds, function, tuple(args), dict(kwargs)


def run_worker(
    server: str,
    poll_interval: float = 0.5,
    worker_id: Optional[str] = None,
    new_process_group: bool = False,
    say: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> int:
    """Drain tasks from ``server`` until the queue reports done.

    Args:
        server: the ``campaign serve`` base URL.
        poll_interval: sleep between attempts at the *first* contact,
            while the server may still be binding; once connected,
            waiting for work is the server's long poll.
        worker_id: lease owner name (default ``host:pid``).
        new_process_group: start a fresh process group first — lets a
            supervisor (or the chaos tests) SIGKILL this worker *and*
            any process it started with one ``killpg``, modelling a
            whole silent host.
        say: optional ``print``-like progress sink.
        timeout: per-request HTTP timeout (default: the store client's);
            bounds how long a poll can hang on a half-dead server.

    Returns the number of tasks this worker completed.  A server that
    stops answering after the first successful contact is treated as a
    finished campaign (the serve process exits once the grid is done),
    not an error.
    """
    if new_process_group:
        os.setpgrp()
    name = worker_id or f"{socket.gethostname()}:{os.getpid()}"
    tell = say if say is not None else (lambda message: None)
    client = QueueClient(server, timeout=timeout)
    completed = 0
    contacted = False
    first_try = time.monotonic()
    while True:
        try:
            grant = client.lease(name)
        except RemoteStoreError:
            if contacted:
                tell(f"worker {name}: server left; campaign finished")
                return completed
            if time.monotonic() - first_try > CONNECT_GRACE_SECONDS:
                raise
            time.sleep(poll_interval)
            continue
        contacted = True
        status = grant.get("status")
        if status == "done":
            tell(f"worker {name}: queue drained")
            return completed
        if status == "wait":
            time.sleep(float(grant.get("retry_after", poll_interval)))
            continue
        if status != "ok":
            raise RemoteStoreError(
                f"result server {client.url} answered unknown lease "
                f"status {status!r}"
            )
        task_id, lease_seconds, function, args, kwargs = _decode_task(grant)
        # A kill here dies holding a fresh, unworked lease — the silent
        # host the expiry machinery exists for.
        faults.fire("queue.lease", context=task_id)
        tell(f"worker {name}: leased {task_id}")
        try:
            with _Heartbeat(client, task_id, name, lease_seconds):
                result = function(*args, **kwargs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            try:
                client.publish_error(task_id, name, f"{type(error).__name__}: {error}")
            except RemoteStoreError:
                pass  # the lease expiry charges it instead
            continue
        # A kill here dies with the work *finished* but unpublished; the
        # re-enqueued task recomputes to an identical result.
        faults.fire("queue.publish", context=task_id)
        payload = pickle.dumps(result)
        try:
            if client.publish_result(task_id, name, payload):
                completed += 1
                tell(f"worker {name}: published {task_id}")
        except RemoteStoreError:
            # Server gone mid-publish: the campaign is over (or the
            # expiry machinery will recover the task on a re-serve).
            return completed
