"""Supervised process-pool execution: retries, backoff, timeouts, respawn.

Every parallel gather in this codebase used to share one failure mode: a
worker crash (``BrokenProcessPool``), a hung task, or a task exception
aborted the whole run, no matter how many tasks had already finished.
:func:`run_supervised` is the shared gather loop that makes those
failures *recoverable*:

* a task that raises is re-enqueued with capped exponential backoff and
  retried up to ``max_retries`` times (:class:`RetryPolicy`);
* a broken pool is respawned: results of tasks that finished before the
  break are **harvested** first (handed to ``on_result`` exactly as if
  they had been gathered normally — checkpoint saves included, so no
  finished work is lost), the in-flight tasks are re-enqueued, and a
  fresh pool takes over;
* a task exceeding ``task_timeout`` has its (presumed wedged) pool
  terminated with SIGKILL — a hung worker cannot be cancelled through
  ``concurrent.futures`` — and is re-enqueued like a crash; tasks that
  were merely collateral in-flight neighbours are re-enqueued without
  consuming one of their retries;
* a task that exhausts its retries is offered to ``on_giveup``
  (the campaign layer quarantines it and keeps going); without a
  handler the last error propagates, preserving the legacy
  fail-fast contract — the **default** policy retries nothing, so
  un-opted-in callers see byte-for-byte the old behaviour.

Every task occupies one worker, and at most ``budget`` tasks are in
flight — so every submitted task holds a real worker immediately and
timeout deadlines measure execution, not queue wait.  On a clean run with no timeout the loop performs exactly one
``wait`` per completion batch, same as the unsupervised gathers it
replaced — supervision costs nothing until something fails.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError, ReproError

__all__ = [
    "RetryPolicy",
    "TaskTimeoutError",
    "is_broken_pool",
    "run_supervised",
    "terminate_workers",
]


class TaskTimeoutError(ReproError):
    """A supervised task exceeded its ``task_timeout`` lease."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised gather treats failing tasks.

    The default policy (no retries, no timeout) reproduces the legacy
    fail-fast behaviour exactly; supervision activates only when a caller
    opts in.

    Attributes:
        max_retries: failed attempts a task may accumulate beyond its
            first before it is given up (0 = fail fast).
        backoff: base delay before retry ``n`` — the task waits
            ``backoff * 2**(n-1)`` seconds, capped at ``backoff_cap``.
            Unrelated tasks keep running during the wait.
        backoff_cap: upper bound of the exponential delay.
        task_timeout: seconds one task attempt may run before its pool is
            presumed wedged and terminated (``None`` disables the lease;
            clean runs then never poll).
    """

    max_retries: int = 0
    backoff: float = 0.5
    backoff_cap: float = 30.0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 0:
            raise ConfigurationError(
                f"backoff must be >= 0, got {self.backoff}"
            )
        if self.backoff_cap < 0:
            raise ConfigurationError(
                f"backoff_cap must be >= 0, got {self.backoff_cap}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )

    @property
    def supervised(self) -> bool:
        """``True`` when the policy changes anything over fail-fast."""
        return self.max_retries > 0 or self.task_timeout is not None

    def delay_for(self, attempt: int) -> float:
        """Capped exponential backoff before retry number ``attempt``."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff * (2.0 ** (attempt - 1)), self.backoff_cap)


def is_broken_pool(error: BaseException) -> bool:
    """``True`` for failures that condemn the whole executor.

    ``BrokenProcessPool`` subclasses ``BrokenExecutor``; submitting to an
    already-broken pool raises the same family.
    """
    return isinstance(error, BrokenExecutor)


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL a pool's worker processes and reap the executor.

    Used when a worker is presumed hung: ``shutdown`` alone would block
    on the wedged task forever, and ``concurrent.futures`` offers no way
    to cancel a *running* future.  Killing the workers first makes the
    subsequent blocking shutdown return promptly.  Safe on an
    already-broken pool (its processes are reaped or dying).
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass  # already dead or never started
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


#: Uncharged pool respawns allowed after the first break of a progress
#: epoch (see the ``breaks_since_progress`` comment in
#: :func:`run_supervised`).
_BREAK_GRACE = 3


@dataclass
class _Flight:
    """Book-keeping of one in-flight future."""

    task: Hashable
    deadline: Optional[float]


def _drain(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Failure-path cleanup: settle the pool before the error propagates.

    The pool shuts down exactly as the legacy ``with`` blocks did
    (in-flight and queued tasks run to completion, so their worker-side
    checkpoint writes still land).  With ``kill`` (a timeout policy is
    active, so a worker may be wedged) the workers are SIGKILLed instead
    of awaited.  Finished results are *not* handed to ``on_result`` here —
    this path runs when the gather is already failing, and replaying side
    effects (checkpoint saves) during teardown would change observable
    state on an error path.  Every failure is swallowed; the original
    error is being propagated by the caller.
    """
    try:
        if kill:
            terminate_workers(pool)
        else:
            pool.shutdown(wait=True)
    except Exception:
        pass


def run_supervised(
    tasks: Sequence[Hashable],
    *,
    budget: int,
    submit: Callable[[ProcessPoolExecutor, Any], Future],
    on_result: Callable[[Any, Any], None],
    policy: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[Any, BaseException, int, float], None]] = None,
    on_giveup: Optional[Callable[[Any, BaseException, int], bool]] = None,
    on_respawn: Optional[Callable[[], None]] = None,
) -> None:
    """Run ``tasks`` through a supervised process pool until all resolve.

    Args:
        tasks: hashable task descriptors, in submission order.
        budget: tasks that may be in flight at once; also the pool's
            ``max_workers``.
        submit: ``(pool, task) -> future`` — submits one task.
        on_result: ``(task, result)`` — consumes one successful result
            (checkpoint save, assembly).  An exception here is a
            *parent-side* failure and always propagates.
        policy: the :class:`RetryPolicy`; ``None`` means fail fast.
        on_retry: notified ``(task, error, attempt, delay)`` before each
            re-enqueue.
        on_giveup: offered ``(task, error, attempts)`` when a task
            exhausts its retries; returning ``True`` absorbs the failure
            (quarantine) and the gather continues.  Without a handler —
            or when it returns falsy — the error propagates.
        on_respawn: called after a pool is condemned and its survivors
            harvested, before the replacement pool spawns (the store
            layer sweeps dead writers' staging directories here).

    Raises:
        Whatever the first unrecoverable failure raised: the task's own
        exception, ``BrokenProcessPool`` / :class:`TaskTimeoutError` when
        retries are exhausted (or not configured), or any ``on_result``
        failure.
    """
    policy = policy or RetryPolicy()
    if budget < 1:
        raise ConfigurationError(f"budget must be at least 1, got {budget}")
    pending: Deque[Tuple[Hashable, float]] = deque(
        (task, 0.0) for task in tasks
    )
    if not pending:
        return
    attempts: Dict[Hashable, int] = {}
    futures: Dict[Future, _Flight] = {}
    # Pool breaks observed since the last successfully delivered result.
    # A freshly respawned executor is occasionally condemned by a CPython
    # teardown race (the manager thread sees a worker sentinel ready while
    # every worker is demonstrably alive; reproduces under both the fork
    # and spawn start methods, always with a ``None`` cause).  Such a
    # re-break names no culprit and charging every in-flight task a retry
    # for it burns the budget of innocent tasks, so after the first break
    # of a progress epoch a few immediate re-breaks respawn for free.
    # The grace is bounded: a genuinely poisonous task that kills its
    # worker on every attempt still accumulates charges — just across
    # ``_BREAK_GRACE + 1`` times as many respawns — so give-up remains
    # guaranteed.
    breaks_since_progress = 0
    pool = ProcessPoolExecutor(max_workers=budget)

    def charge(task: Hashable, error: BaseException) -> None:
        """Consume one retry of ``task``; re-enqueue, quarantine or raise."""
        attempts[task] = attempts.get(task, 0) + 1
        count = attempts[task]
        if count <= policy.max_retries:
            telemetry.metrics.counter("supervision.retries").add(1)
            delay = policy.delay_for(count)
            if on_retry is not None:
                on_retry(task, error, count, delay)
            pending.append((task, time.monotonic() + delay))
            return
        telemetry.metrics.counter("supervision.giveups").add(1)
        if on_giveup is not None and on_giveup(task, error, count):
            return
        raise error

    def recover(error: BaseException, charged: Optional[set]) -> None:
        """Pool-death path: harvest survivors, re-enqueue the rest, respawn.

        ``charged`` limits which re-enqueued tasks consume a retry (the
        overdue tasks of a timeout); ``None`` charges every one (a broken
        pool cannot name its culprit) — except during the bounded
        spurious-break grace, when an immediate re-break with no result
        delivered since the previous break re-enqueues without charging.
        Tasks whose futures settled successfully before the death are
        harvested through ``on_result`` — their work, including pending
        checkpoint saves, survives the crash.
        """
        nonlocal pool, breaks_since_progress
        survivors: list = []
        requeue: list = []
        for future, flight in futures.items():
            result = None
            harvested = False
            if future.done() and not future.cancelled():
                try:
                    result = future.result()
                    harvested = True
                except BaseException:
                    harvested = False
            if harvested:
                survivors.append((flight, result))
            else:
                requeue.append(flight.task)
        for flight, result in survivors:
            on_result(flight.task, result)
        if survivors:
            breaks_since_progress = 0
        breaks_since_progress += 1
        spurious = (
            charged is None
            and breaks_since_progress > 1
            and breaks_since_progress <= 1 + _BREAK_GRACE
        )
        futures.clear()
        # A straggler that slipped its result in between the harvest pass
        # and the kill is re-enqueued anyway; its checkpoint save never ran.
        terminate_workers(pool)
        telemetry.metrics.counter("supervision.respawns").add(1)
        if on_respawn is not None:
            on_respawn()
        pool = ProcessPoolExecutor(max_workers=budget)
        for task in requeue:
            if spurious:
                pending.append((task, time.monotonic()))
            elif charged is None or task in charged:
                charge(task, error)
            else:
                pending.append((task, time.monotonic()))

    try:
        while pending or futures:
            now = time.monotonic()
            while pending and len(futures) < budget and pending[0][1] <= now:
                task, _ = pending.popleft()
                try:
                    future = submit(pool, task)
                except BrokenExecutor as error:
                    pending.appendleft((task, now))
                    recover(error, charged=None)
                    break
                futures[future] = _Flight(task, None if policy.task_timeout is None else now + policy.task_timeout)
            if not futures:
                if pending:
                    # Everything runnable is backing off; sleep to the
                    # earliest ready time.
                    wake = min(ready for _, ready in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
                continue
            timeout = None
            bounds = [
                flight.deadline
                for flight in futures.values()
                if flight.deadline is not None
            ]
            if pending and len(futures) < budget:
                bounds.append(min(ready for _, ready in pending))
            if bounds:
                timeout = max(0.0, min(bounds) - time.monotonic())
            done, _ = wait(set(futures), timeout=timeout, return_when=FIRST_COMPLETED)
            broken: Optional[BaseException] = None
            for future in done:
                flight = futures[future]
                try:
                    result = future.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:
                    if is_broken_pool(error):
                        broken = error
                        break
                    futures.pop(future)
                    charge(flight.task, error)
                    continue
                futures.pop(future)
                on_result(flight.task, result)
                breaks_since_progress = 0
            if broken is not None:
                recover(broken, charged=None)
                continue
            if policy.task_timeout is not None:
                now = time.monotonic()
                overdue = {
                    flight.task
                    for future, flight in futures.items()
                    if flight.deadline is not None
                    and flight.deadline <= now
                    and not future.done()
                }
                if overdue:
                    recover(
                        TaskTimeoutError(
                            f"{len(overdue)} task(s) exceeded the "
                            f"{policy.task_timeout:g}s task timeout"
                        ),
                        charged=overdue,
                    )
    except BaseException:
        _drain(pool, kill=policy.task_timeout is not None)
        raise
    finally:
        pool.shutdown(wait=True)
