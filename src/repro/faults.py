"""Deterministic fault injection for chaos testing.

Fault tolerance cannot be trusted until the failure modes it claims to
survive have actually been exercised — on demand, reproducibly, in CI.
This module provides that trigger: a *fault plan* is a declarative list
of :class:`FaultSpec` entries ("kill the worker on the 2nd measure
task", "fail every sweep-row write with ENOSPC", "corrupt the sweep
entry after it lands"), serialised to JSON and activated through the
``REPRO_FAULTS`` environment variable so every process of a campaign —
the parent and its pool or queue workers — sees the same plan without
any code change.

Instrumented sites call :func:`fire` with a site name and a context
string.  The call is a near-free no-op while no plan is active (one
``os.environ`` lookup), so the hooks stay in production code paths.

Determinism across processes
----------------------------
"The Nth matching hit" must mean the same thing whether the hits come
from one process or race in from eight pool workers.  Each spec owns a
counter file under the plan's ``state_dir``, incremented under an
``fcntl`` file lock, so exactly one process observes each ordinal — the
2nd hit fires exactly once, campaign-wide, no matter the worker layout.
A retried task re-enters the site with a *later* ordinal, which is what
lets a fault with ``count=1`` model a transient failure: the retry
sails through and the run completes bit-identically to a fault-free one.

Sites instrumented today:

====================  =====================================================
``measure``           entry of :func:`repro.simulation.sweep.measure_row`
                      (one sweep/scheduler task); context ``"name=value"``.
``iteration``         entry of one mobile simulation iteration in a runner
                      worker (stationary placements do not fire it);
                      context ``"iteration=<index>"``.
``store.put``         one :class:`~repro.store.result_store.ResultStore`
                      write; context ``"<kind>:<key>"`` (``corrupt``
                      flips payload bytes *after* the entry lands).
``store.get``         one store read; context ``"<key>"``.
``telemetry.flush``   one telemetry trace-buffer flush; context is the
                      ``trace.jsonl`` path.  A firing fault degrades the
                      tracer (spans dropped, one warning) — it never
                      fails the campaign.
``queue.lease``       a distributed worker the moment a work-queue lease
                      is granted (:func:`repro.distributed.worker.
                      run_worker`); context is the task id.  ``kill``
                      models a host dying while holding a fresh lease —
                      the lease expires and the task is re-enqueued.
``queue.publish``     the same worker after computing a task but before
                      publishing its result; context is the task id.
                      A kill here loses only the publish — the
                      re-enqueued task recomputes bit-identically.
====================  =====================================================
"""

from __future__ import annotations

import errno as errno_module
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, ReproError

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active",
    "current_plan",
    "fire",
    "write_plan",
]

#: Environment variable naming the active fault-plan JSON file.  Pool
#: workers inherit the parent's environment (fork and spawn alike), so
#: setting it once in the driving process arms every process of the run.
ENV_VAR = "REPRO_FAULTS"

_ACTIONS = frozenset({"kill", "raise", "hang", "io-error", "corrupt"})
#: Actions :func:`fire` performs itself; the remaining ones (``corrupt``)
#: are returned to the instrumented site, which knows how to apply them.
_INTRINSIC_ACTIONS = frozenset({"kill", "raise", "hang", "io-error"})


class InjectedFault(ReproError):
    """The deliberate failure raised by a ``raise`` fault action."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, what, and on which matching hits.

    Attributes:
        site: instrumented site name the fault arms (``"measure"``,
            ``"iteration"``, ``"store.put"``, ``"store.get"``).
        action: ``"kill"`` (SIGKILL the current process), ``"raise"``
            (raise :class:`InjectedFault`), ``"hang"`` (sleep
            ``seconds``, modelling a wedged task), ``"io-error"`` (raise
            ``OSError(errno)``), or ``"corrupt"`` (returned to the site;
            the store flips payload bytes after the write).
        at: 1-based ordinal of the first matching hit that fires.
        count: how many consecutive hits fire from ``at`` on; ``0``
            means every hit from ``at`` onwards (a persistent fault).
            The default ``1`` models a transient fault a retry survives.
        match: substring the hit's context must contain (empty matches
            everything) — e.g. ``"l=80"`` pins a fault to one parameter
            value, ``"sweep-row:"`` to row-checkpoint writes.
        error: symbolic errno name for ``io-error`` (``"ENOSPC"``,
            ``"EIO"``, ...).
        seconds: sleep duration of ``hang``.
    """

    site: str
    action: str
    at: int = 1
    count: int = 1
    match: str = ""
    error: str = "ENOSPC"
    seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {sorted(_ACTIONS)}"
            )
        if self.at < 1:
            raise ConfigurationError(f"fault 'at' must be >= 1, got {self.at}")
        if self.count < 0:
            raise ConfigurationError(
                f"fault 'count' must be >= 0, got {self.count}"
            )
        if self.action == "io-error" and not hasattr(errno_module, self.error):
            raise ConfigurationError(f"unknown errno name {self.error!r}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"fault 'seconds' must be >= 0, got {self.seconds}"
            )

    def covers(self, ordinal: int) -> bool:
        """``True`` when the ``ordinal``-th matching hit should fire."""
        if ordinal < self.at:
            return False
        return self.count == 0 or ordinal < self.at + self.count


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs plus their counter directory."""

    faults: Tuple[FaultSpec, ...] = ()
    state_dir: str = ""

    @classmethod
    def from_document(
        cls, document: Dict, default_state_dir: str
    ) -> "FaultPlan":
        if not isinstance(document, dict):
            raise ConfigurationError("a fault plan must be a JSON object")
        raw_faults = document.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ConfigurationError("fault plan 'faults' must be a list")
        faults = []
        for entry in raw_faults:
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"fault plan entries must be objects, got {entry!r}"
                )
            unknown = set(entry) - {f for f in FaultSpec.__dataclass_fields__}
            if unknown:
                raise ConfigurationError(
                    f"unknown fault spec fields {sorted(unknown)}"
                )
            faults.append(FaultSpec(**entry))
        state_dir = document.get("state_dir") or default_state_dir
        return cls(faults=tuple(faults), state_dir=str(state_dir))


def write_plan(
    path: Union[str, Path],
    faults: List[FaultSpec],
    state_dir: Optional[Union[str, Path]] = None,
) -> Path:
    """Serialise a plan to ``path``; counters live next to it by default."""
    path = Path(path)
    document = {
        "faults": [asdict(spec) for spec in faults],
        "state_dir": str(state_dir) if state_dir is not None else "",
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


# --------------------------------------------------------------------- #
# Plan resolution (cached per plan path)
# --------------------------------------------------------------------- #
_cache: Dict[str, FaultPlan] = {}


def current_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None`` — the single switch :func:`fire` checks."""
    plan_path = os.environ.get(ENV_VAR)
    if not plan_path:
        return None
    cached = _cache.get(plan_path)
    if cached is not None:
        return cached
    try:
        document = json.loads(Path(plan_path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"cannot load fault plan {plan_path!r}: {error}"
        ) from error
    plan = FaultPlan.from_document(
        document, default_state_dir=str(Path(plan_path).parent)
    )
    _cache.clear()  # one active plan at a time; forget prior runs
    _cache[plan_path] = plan
    return plan


@contextmanager
def active(faults: List[FaultSpec], state_dir: Union[str, Path]) -> Iterator[Path]:
    """Arm ``faults`` for the duration of the block (test helper).

    Writes the plan into ``state_dir`` (which also receives the hit
    counters), points :data:`ENV_VAR` at it, and restores the previous
    environment on exit.  Worker processes forked inside the block
    inherit the armed environment.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    plan_path = write_plan(state_dir / "faultplan.json", faults)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(plan_path)
    _cache.clear()
    try:
        yield plan_path
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        _cache.clear()


# --------------------------------------------------------------------- #
# Cross-process hit counters
# --------------------------------------------------------------------- #
def _next_ordinal(state_dir: str, spec_index: int) -> int:
    """Atomically increment and return spec ``spec_index``'s hit counter.

    The counter file is shared by every process of the run; the ``fcntl``
    lock serialises read-modify-write so each ordinal is observed exactly
    once.  A process killed mid-critical-section releases the lock with
    its file descriptor, so a ``kill`` fault cannot wedge the counter.
    The new value is one ``pwrite`` over the old, with no truncate:
    ordinals only grow, so the new digits always cover the old ones, and
    a writer killed at any point leaves either count in the file.
    """
    import fcntl

    directory = Path(state_dir)
    directory.mkdir(parents=True, exist_ok=True)
    descriptor = os.open(
        directory / f"hits-{spec_index}", os.O_RDWR | os.O_CREAT, 0o644
    )
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        raw = os.pread(descriptor, 32, 0).strip()
        ordinal = (int(raw) if raw else 0) + 1
        os.pwrite(descriptor, str(ordinal).encode(), 0)
    finally:
        os.close(descriptor)
    return ordinal


def _perform(spec: FaultSpec, site: str, context: str) -> None:
    """Execute one intrinsic fault action in the current process."""
    if spec.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.action == "raise":
        raise InjectedFault(f"injected fault at {site} ({context})")
    elif spec.action == "hang":
        time.sleep(spec.seconds)
    elif spec.action == "io-error":
        code = getattr(errno_module, spec.error)
        raise OSError(
            code, f"injected {spec.error} at {site} ({context})"
        )


def fire(site: str, context: str = "") -> Optional[FaultSpec]:
    """Fault-injection hook: fire any armed fault matching this hit.

    No-op (and near-free) unless :data:`ENV_VAR` names a plan.  For each
    matching :class:`FaultSpec` the spec's cross-process hit counter is
    advanced *first*, then the action runs — so a task killed or failed
    by a transient (``count=1``) fault passes the site cleanly when it is
    retried.  Intrinsic actions (kill / raise / hang / io-error) happen
    here; site-handled actions (``corrupt``) are returned to the caller.
    """
    plan = current_plan()
    if plan is None:
        return None
    triggered: Optional[FaultSpec] = None
    for spec_index, spec in enumerate(plan.faults):
        if spec.site != site:
            continue
        if spec.match and spec.match not in context:
            continue
        ordinal = _next_ordinal(plan.state_dir, spec_index)
        if not spec.covers(ordinal):
            continue
        if spec.action in _INTRINSIC_ACTIONS:
            _perform(spec, site, context)
        triggered = spec
    return triggered
