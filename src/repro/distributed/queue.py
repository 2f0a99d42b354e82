"""The pull-based work queue behind ``campaign serve``.

Holds the campaign scheduler's already-picklable task payloads and hands
them out one lease at a time.  All state transitions happen
*synchronously under one lock* — a lease expiry, a published error and a
published result each charge or complete the task before the call
returns, so ``done()`` can never report completion while a charge is
still in flight.

Leases long-poll: ``lease(worker, wait=s)`` decides and, while nothing
can be granted, waits on a :class:`threading.Condition` sharing that
lock for up to ``s`` seconds.  Every transition that can make a task
grantable or finish the queue — ``add``, ``seal``, a published result
and every charge (published error or expired lease) — notifies the
waiters, so a held lease answers within a thread wake-up of the change
and no wake-up is lost between deciding and waiting.  ``wait=0`` (the
default) never blocks, which keeps the ``now=``-driven unit semantics
deterministic.

Failure semantics are the campaign's existing ones, not new ones: a
failed attempt (published error or expired lease) is charged against the
task exactly like :func:`repro.supervision.run_supervised` charges the
task of a dead pool worker — re-enqueued with ``policy.delay_for(attempts)``
capped exponential backoff while attempts remain, given up once
``max_retries`` is exhausted.  Dispositions leave the queue as events
(``retried`` / ``giveup`` / ``result``) drained by the driving
:class:`~repro.distributed.campaign.DistributedCampaign`, which applies
the scheduler's own row saving, poison recording and progress reporting.

A result published *after* the lease expired is still accepted (once):
finished work is never thrown away just because the worker looked dead —
as the supervised pool reads a result a worker sent before it died.
Content addressing makes a racing duplicate write of the same key a
no-op, and the first published result wins the event; later publishes of
a done task are acknowledged and dropped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from queue import Queue
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.supervision import RetryPolicy

__all__ = ["QueueEvent", "WorkQueue"]

#: One disposition leaving the queue for the campaign driver:
#: ``("result", task_id, payload_bytes)``,
#: ``("retried", task_id, error, attempt, delay)`` or
#: ``("giveup", task_id, error, attempts)``.
QueueEvent = Tuple[Any, ...]

#: Seconds between an idle worker's lease polls: the ``retry_after`` a
#: non-blocking lease answers while nothing is pending, and the longest
#: the result server holds one lease request open.
IDLE_POLL_SECONDS = 0.5


@dataclass
class _Task:
    task_id: str
    payload: bytes
    state: str = "pending"  # pending | leased | done | poisoned
    attempts: int = 0
    not_before: float = 0.0
    worker: Optional[str] = None
    deadline: float = 0.0
    granted_at: float = 0.0
    enqueued_at: int = 0  # insertion order; leases preserve it


class WorkQueue:
    """Thread-safe lease/heartbeat/publish state machine.

    Args:
        policy: the campaign's retry policy; expiries and published
            errors charge attempts against it, verbatim.
        lease_seconds: how long a granted lease lives without a
            heartbeat before the task is presumed lost.
        events: sink for :data:`QueueEvent` dispositions (the campaign
            driver's inbox).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        lease_seconds: float = 30.0,
        events: Optional[Queue] = None,
    ) -> None:
        from repro.exceptions import ConfigurationError

        if lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        self.policy = policy
        self.lease_seconds = float(lease_seconds)
        self.events: Queue = Queue() if events is None else events
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._tasks: Dict[str, _Task] = {}
        self._order = 0
        self._sealed = False

    # ------------------------------------------------------------------ #
    def add(self, task_id: str, payload: bytes) -> None:
        """Enqueue one task (driver side, before sealing)."""
        with self._lock:
            self._order += 1
            self._tasks[task_id] = _Task(
                task_id=task_id, payload=payload, enqueued_at=self._order
            )
            self._changed.notify_all()

    def seal(self) -> None:
        """Mark the task set complete.

        Until sealed, ``lease`` answers ``wait`` instead of ``done`` to
        an empty queue — a worker that connects while the driver is still
        probing caches and enqueueing must poll, not exit.
        """
        with self._lock:
            self._sealed = True
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    def lease(
        self, worker: str, now: Optional[float] = None, wait: float = 0.0
    ) -> Dict[str, Any]:
        """Grant the next ready task to ``worker``.

        Returns ``{"status": "ok", "task": id, "payload": bytes,
        "lease_seconds": s}`` on a grant, ``{"status": "wait",
        "retry_after": s}`` while nothing is ready, and
        ``{"status": "done"}`` once every task reached a terminal state.

        ``wait`` > 0 holds a would-be ``wait`` answer for up to that many
        seconds, re-deciding whenever the queue changes and when the
        earliest backoff ends.  A ``wait`` answer after a hold says
        ``retry_after: 0``: the caller already waited.
        """
        hold_until = time.monotonic() + wait
        with self._changed:
            while True:
                moment = time.time() if now is None else now
                self._expire_locked(moment)
                answer = self._grant_locked(worker, moment)
                if answer is not None:
                    return answer
                backoffs = [
                    task.not_before - moment
                    for task in self._tasks.values()
                    if task.state == "pending"
                ]
                remaining = hold_until - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(min([remaining, *backoffs]))
        if wait > 0:
            return {"status": "wait", "retry_after": 0.0}
        # With nothing pending (everything leased elsewhere, or the
        # campaign still enqueueing) the next change is a publish, an
        # expiry or a new task — any moment now — so keep the worker
        # polling briskly rather than parking it a whole lease.
        retry_after = (
            min(backoffs)
            if backoffs
            else min(self.lease_seconds, IDLE_POLL_SECONDS)
        )
        return {
            "status": "wait",
            "retry_after": max(0.05, min(retry_after, self.lease_seconds)),
        }

    def _grant_locked(
        self, worker: str, moment: float
    ) -> Optional[Dict[str, Any]]:
        """A grant or ``done`` answer, or ``None`` when the caller must wait."""
        ready: List[_Task] = [
            task
            for task in self._tasks.values()
            if task.state == "pending" and task.not_before <= moment
        ]
        if ready:
            task = min(ready, key=lambda item: item.enqueued_at)
            task.state = "leased"
            task.worker = worker
            task.granted_at = moment
            task.deadline = moment + self.lease_seconds
            telemetry.metrics.counter("queue.leases").add(1)
            return {
                "status": "ok",
                "task": task.task_id,
                "payload": task.payload,
                "lease_seconds": self.lease_seconds,
            }
        if self._done_locked():
            return {"status": "done"}
        return None

    def heartbeat(
        self, task_id: str, worker: str, now: Optional[float] = None
    ) -> bool:
        """Extend a live lease; ``False`` if the lease is no longer held."""
        moment = time.time() if now is None else now
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state != "leased" or task.worker != worker:
                return False
            task.deadline = moment + self.lease_seconds
            return True

    def publish_result(
        self,
        task_id: str,
        worker: str,
        payload: bytes,
        now: Optional[float] = None,
    ) -> bool:
        """Accept a finished task's pickled result.

        Accepted from any worker whose task is not yet terminal — an
        expired-and-re-enqueued task's late survivor is harvested rather
        than recomputed.  Returns ``False`` (and drops the payload) only
        when the task is unknown or already done/poisoned.
        """
        moment = time.time() if now is None else now
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state in ("done", "poisoned"):
                return False
            if task.granted_at:
                telemetry.metrics.histogram("queue.publish_seconds").observe(
                    max(0.0, moment - task.granted_at)
                )
            task.state = "done"
            task.worker = worker
            self.events.put(("result", task_id, payload))
            self._changed.notify_all()
            return True

    def publish_error(
        self,
        task_id: str,
        worker: str,
        error: str,
        now: Optional[float] = None,
    ) -> bool:
        """Charge a failed attempt reported by its own worker."""
        moment = time.time() if now is None else now
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.state in ("done", "poisoned"):
                return False
            self._charge_locked(task, error, moment)
            return True

    def expire(self, now: Optional[float] = None) -> int:
        """Charge every lease whose deadline passed; returns the count.

        The driver ticks this; a worker that died holding a lease (or
        went silent past its heartbeats) is indistinguishable from a
        crashed pool worker and is charged the same way.
        """
        moment = time.time() if now is None else now
        with self._lock:
            return self._expire_locked(moment)

    # ------------------------------------------------------------------ #
    def _expire_locked(self, moment: float) -> int:
        expired = 0
        for task in self._tasks.values():
            if task.state == "leased" and task.deadline <= moment:
                expired += 1
                telemetry.metrics.counter("queue.lease_expiries").add(1)
                self._charge_locked(
                    task,
                    f"lease expired after {self.lease_seconds:g}s "
                    f"(worker {task.worker!r} silent)",
                    moment,
                )
        return expired

    def _charge_locked(self, task: _Task, error: str, moment: float) -> None:
        task.attempts += 1
        task.worker = None
        if task.attempts <= self.policy.max_retries:
            delay = self.policy.delay_for(task.attempts)
            task.state = "pending"
            task.not_before = moment + delay
            self.events.put(
                ("retried", task.task_id, error, task.attempts, delay)
            )
        else:
            task.state = "poisoned"
            self.events.put(("giveup", task.task_id, error, task.attempts))
        self._changed.notify_all()

    def _done_locked(self) -> bool:
        return self._sealed and all(
            task.state in ("done", "poisoned")
            for task in self._tasks.values()
        )

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        """``True`` once sealed and every task is done or poisoned."""
        with self._lock:
            return self._done_locked()

    def stats(self) -> Dict[str, int]:
        """State counts for ``GET /queue/stats`` and the tests."""
        with self._lock:
            counts = {"pending": 0, "leased": 0, "done": 0, "poisoned": 0}
            for task in self._tasks.values():
                counts[task.state] += 1
            counts["total"] = len(self._tasks)
            counts["sealed"] = int(self._sealed)
            return counts
