"""Supervised worker pool: retries, backoff, timeouts, respawn.

:func:`run_supervised` runs tasks on a pool it owns: ``budget``
:mod:`multiprocessing` processes, each with its own pipe.  The loop waits
on the busy workers' pipes and process sentinels together, so every
failure names its culprit:

* a task that raises is re-enqueued with capped exponential backoff and
  retried up to ``max_retries`` times (:class:`RetryPolicy`);
* a worker that dies is joined and replaced on its own, and only the task
  it held is charged.  A reply it sent before it died is read like any
  other;
* a task exceeding ``task_timeout`` has its worker SIGKILLed and replaced
  and is charged like a crash; the other workers run on untouched;
* a task that exhausts its retries is offered to ``on_giveup``
  (the campaign layer quarantines it and keeps going); without a
  handler the last error propagates, preserving the fail-fast
  contract — the **default** policy retries nothing.

Every task occupies one worker, and at most ``budget`` tasks are in
flight — so timeout deadlines measure execution, not queue wait.  On a
clean run with no timeout the loop blocks in exactly one ``wait`` per
batch of replies — supervision costs nothing until something fails.

Workers start from the default :mod:`multiprocessing` context (fork on
Linux), so they inherit the parent's module state: instrumentation
patched in before the run and the ``REPRO_TRACE`` / ``REPRO_FAULTS``
environment reach them unchanged.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.pool import ExceptionWithTraceback
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError, ReproError

__all__ = ["RetryPolicy", "TaskTimeoutError", "run_supervised"]


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
        task_timeout: seconds one task attempt may run before its worker
            is presumed wedged and SIGKILLed (``None`` disables the lease;
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


def _serve(connection: Connection, parent_end: Connection) -> None:
    """A worker's loop: run each ``(fn, args)`` received, reply ``(ok, value)``.

    ``None`` ends the loop.  An exception arrives with the worker's
    traceback as its ``__cause__``; a result or exception that fails to
    pickle is replaced by a :class:`ReproError` carrying its repr.  The
    worker closes its inherited copy of the parent's end, so it reads
    end-of-file, and exits, if the parent dies.
    """
    parent_end.close()
    while True:
        try:
            job = connection.recv()
        except EOFError:
            return
        if job is None:
            return
        fn, args = job
        try:
            ok, value = True, fn(*args)
        except Exception as error:
            ok, value = False, error
        reply = value if ok else ExceptionWithTraceback(value, value.__traceback__)
        try:
            connection.send((ok, reply))
        except OSError:
            return  # the parent is gone
        except Exception:
            kind = "result" if ok else "error"
            connection.send(
                (False, ReproError(f"the task's {kind} failed to pickle: {value!r}"))
            )


class _Worker:
    """One pool process and the parent's end of its pipe."""

    def __init__(self, context: Any) -> None:
        self.connection, child = context.Pipe()
        self.process = context.Process(target=_serve, args=(child, self.connection))
        self.process.start()
        child.close()

    def receive(self, timeout: Optional[float] = 0.0) -> Optional[Tuple[bool, Any]]:
        """The worker's next reply, or ``None`` once it died without one.

        ``timeout=None`` blocks until a reply arrives or the worker exits.
        """
        try:
            if self.connection.poll(timeout):
                return self.connection.recv()
        except (EOFError, OSError):
            pass
        return None

    def close(self, kill: bool = False) -> None:
        """Join the process (SIGKILLed first with ``kill``); close the pipe."""
        if kill:
            self.process.kill()
        self.process.join()
        self.connection.close()


def _stop(workers: Sequence[_Worker], kill: bool) -> None:
    """End and join ``workers``, so no child outlives the gather.

    Each worker is sent ``None`` and ends after its current task — on the
    failure path in-flight tasks finish, so their worker-side checkpoint
    writes still land.  With ``kill`` (a timeout policy is active, so a
    worker may be wedged) they are SIGKILLed instead.  Late replies are
    read, so no worker blocks on a full pipe, and dropped: replaying
    their side effects would change observable state on an error path.
    """
    for worker in workers:
        if kill:
            worker.process.kill()
            continue
        try:
            worker.connection.send(None)
        except OSError:
            pass  # already dead
    for worker in workers:
        while worker.receive(timeout=None) is not None:
            pass
        worker.close()


def run_supervised(
    tasks: Sequence[Hashable],
    *,
    budget: int,
    call: Callable[[Any], Tuple[Callable[..., Any], tuple]],
    on_result: Callable[[Any, Any], None],
    policy: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[Any, BaseException, int, float], None]] = None,
    on_giveup: Optional[Callable[[Any, BaseException, int], bool]] = None,
    on_respawn: Optional[Callable[[], None]] = None,
) -> None:
    """Run ``tasks`` on a supervised worker pool until all resolve.

    Args:
        tasks: hashable task descriptors, in dispatch order.
        budget: tasks that may be in flight at once; also the most
            workers the pool holds.
        call: ``task -> (fn, args)`` — the picklable call a worker runs
            for one task.
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
        on_respawn: called after a dead or overdue worker is joined and
            before its task is charged (the store layer sweeps dead
            writers' staging directories here; a zombie's pid would
            still look alive).

    Raises:
        Whatever the first unrecoverable failure raised: the task's own
        exception, a :class:`ReproError` for a dead worker or a
        :class:`TaskTimeoutError` when retries are exhausted (or not
        configured), or any ``on_result`` failure.
    """
    policy = policy or RetryPolicy()
    if budget < 1:
        raise ConfigurationError(f"budget must be at least 1, got {budget}")
    pending: Deque[Tuple[Hashable, float]] = deque((task, 0.0) for task in tasks)
    if not pending:
        return
    lease = math.inf if policy.task_timeout is None else policy.task_timeout
    attempts: Dict[Hashable, int] = {}
    context = multiprocessing.get_context()
    idle: List[_Worker] = []
    busy: Dict[_Worker, Tuple[Hashable, float]] = {}  # -> (task, deadline)

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

    def replace(worker: _Worker) -> Hashable:
        """Kill and join a dead or overdue worker; return the task it held.

        Its replacement starts when the next task is dispatched.
        """
        task, _ = busy.pop(worker)
        worker.close(kill=True)
        telemetry.metrics.counter("supervision.respawns").add(1)
        if on_respawn is not None:
            on_respawn()
        return task

    try:
        while pending or busy:
            now = time.monotonic()
            while pending and len(busy) < budget and pending[0][1] <= now:
                task, _ = pending.popleft()
                payload = call(task)
                worker = idle.pop() if idle else _Worker(context)
                busy[worker] = (task, now + lease)
                try:
                    worker.connection.send(payload)
                except OSError:
                    # The worker died idle: it held no task, so none is
                    # charged.
                    pending.appendleft((replace(worker), now))
            if not busy:
                # Everything runnable is backing off; dispatch is in
                # order, so sleep to the first task's ready time.
                time.sleep(max(0.0, pending[0][1] - time.monotonic()))
                continue
            wake = min(deadline for _, deadline in busy.values())
            if pending and len(busy) < budget:
                wake = min(wake, pending[0][1])
            timeout = None if wake == math.inf else max(0.0, wake - time.monotonic())
            owners = {worker.connection: worker for worker in busy}
            owners.update((worker.process.sentinel, worker) for worker in busy)
            ready = wait(list(owners), timeout)
            for worker in dict.fromkeys(owners[handle] for handle in ready):
                reply = worker.receive()
                if reply is None:
                    task = replace(worker)
                    code = worker.process.exitcode
                    charge(task, ReproError(f"its worker died (exit code {code})"))
                    continue
                task, _ = busy.pop(worker)
                idle.append(worker)
                ok, value = reply
                if ok:
                    on_result(task, value)
                else:
                    charge(task, value)
            now = time.monotonic()
            for worker, (_, deadline) in list(busy.items()):
                # A reply that landed since the wait is read next pass.
                if deadline <= now and not worker.connection.poll():
                    error = TaskTimeoutError(f"exceeded the {lease:g}s task timeout")
                    charge(replace(worker), error)
    except BaseException:
        _stop([*idle, *busy], kill=lease < math.inf)
        raise
    _stop(idle, kill=False)
