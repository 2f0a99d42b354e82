"""Structured campaign progress events.

The campaign scheduler (and its distributed variant) reports at its
``progress`` callback one typed event per fact: a cache hit, a finished
or failed value task, a finished scenario.  Events carry the underlying
facts (scenario id, parameter value, coverage counts), and rendering is
the consumer's concern: :func:`render` gives the established one-line
text form, and :func:`as_text` adapts any ``str`` sink (``print``, a log
handle) into an event consumer — the CLI's default.  A consumer that
wants the numbers (a progress bar, a dashboard, a structured log) reads
the event fields directly instead of parsing text.

Events are plain frozen dataclasses, not an enum-tagged union: consumers
dispatch with ``isinstance`` and unknown future event types fall through
harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

__all__ = [
    "CacheHit",
    "EntryEvicted",
    "ProgressEvent",
    "ScenarioCompleted",
    "StoreDegraded",
    "TaskCompleted",
    "TaskFailed",
    "TaskQuarantined",
    "TaskRetried",
    "as_text",
    "render",
]


@dataclass(frozen=True)
class CacheHit:
    """A scenario's complete sweep was served from the store."""

    scenario_id: str
    key: str

    def render(self) -> str:
        return f"{self.scenario_id}: cache hit ({self.key[:12]})"


@dataclass(frozen=True)
class EntryEvicted:
    """A corrupt or vanished store entry was evicted; recomputing."""

    scenario_id: str

    def render(self) -> str:
        return f"{self.scenario_id}: unusable entry evicted, recomputing"


@dataclass(frozen=True)
class TaskCompleted:
    """One scheduler task finished: a parameter value was measured.

    Attributes:
        scenario_id: the scenario the task belongs to.
        value: the parameter value measured.
        values_done: rows of the scenario's sweep present so far.
        values_total: rows the complete sweep needs.
        iterations: the experiment's declared iterations per value, when
            it checkpoints at iteration granularity (``None`` otherwise).
    """

    scenario_id: str
    value: float
    values_done: int
    values_total: int
    iterations: Optional[int] = None

    def render(self) -> str:
        detail = f"{self.values_done}/{self.values_total} values"
        if self.iterations:
            detail += f"; {self.iterations} iteration(s)"
        return f"{self.scenario_id}: value {self.value:g} done ({detail})"


@dataclass(frozen=True)
class ScenarioCompleted:
    """A scenario's full sweep landed in the store."""

    scenario_id: str
    computed_values: int
    loaded_values: int

    def render(self) -> str:
        return (
            f"{self.scenario_id}: computed {self.computed_values} "
            f"value(s), resumed {self.loaded_values} from checkpoints"
        )


@dataclass(frozen=True)
class TaskFailed:
    """One scheduler task raised or its worker died.

    Emitted for every failed attempt, whether or not a retry follows —
    a :class:`TaskRetried` or :class:`TaskQuarantined` event then says
    what the supervisor decided.

    Attributes:
        scenario_id: the scenario the task belongs to.
        value: the parameter value the task measured.
        attempt: 1-based attempt number that failed.
        error: the failure, rendered (the task's exception, a dead
            worker's exit code, or a
            :class:`repro.supervision.TaskTimeoutError`).
    """

    scenario_id: str
    value: float
    attempt: int
    error: str

    def render(self) -> str:
        return (
            f"{self.scenario_id}: value {self.value:g} failed "
            f"(attempt {self.attempt}): {self.error}"
        )


@dataclass(frozen=True)
class TaskRetried:
    """A failed task was re-enqueued for another attempt.

    Attributes:
        scenario_id: the scenario the task belongs to.
        value: the parameter value of the task.
        attempt: 1-based attempt number that failed (the retry will be
            ``attempt + 1``).
        max_retries: the configured retry budget.
        delay: backoff delay in seconds before the task becomes ready.
        error: the failure that triggered the retry, rendered.
    """

    scenario_id: str
    value: float
    attempt: int
    max_retries: int
    delay: float
    error: str

    def render(self) -> str:
        return (
            f"{self.scenario_id}: retrying value {self.value:g} "
            f"(attempt {self.attempt}/{self.max_retries + 1} failed, "
            f"backoff {self.delay:g}s)"
        )


@dataclass(frozen=True)
class TaskQuarantined:
    """A task exhausted its retry budget and was quarantined as poison.

    The campaign continues without it; the scenario stays partial and
    ``campaign status`` reports the quarantined value until ``campaign
    clean`` (or a manual :meth:`repro.store.ResultStore.clear_poison`)
    drops the record.

    Attributes:
        scenario_id: the scenario the task belongs to.
        value: the parameter value of the task.
        attempts: total attempts made before giving up.
        error: the final failure, rendered.
    """

    scenario_id: str
    value: float
    attempts: int
    error: str

    def render(self) -> str:
        return (
            f"{self.scenario_id}: value {self.value:g} quarantined after "
            f"{self.attempts} attempt(s): {self.error}"
        )


@dataclass(frozen=True)
class StoreDegraded:
    """A store write failed with ENOSPC & co; checkpointing degraded.

    The run continues with in-memory checkpoints (results of the current
    process survive; durability across kills is lost) — see
    :class:`repro.store.StoreDegradedWarning`.

    Attributes:
        scenario_id: the scenario whose write failed.
        scope: what degraded (``"row"``, ``"iteration"``, ``"sweep"``).
        reason: the failing error, rendered.
    """

    scenario_id: str
    scope: str
    reason: str

    def render(self) -> str:
        return (
            f"{self.scenario_id}: store degraded to in-memory "
            f"{self.scope} checkpoints ({self.reason})"
        )


ProgressEvent = Union[
    CacheHit,
    EntryEvicted,
    TaskCompleted,
    ScenarioCompleted,
    TaskFailed,
    TaskRetried,
    TaskQuarantined,
    StoreDegraded,
]


def render(event: ProgressEvent) -> str:
    """The canonical one-line text form of ``event``."""
    return event.render()


def as_text(sink: Callable[[str], None]) -> Callable[[ProgressEvent], None]:
    """Adapt a ``str`` consumer (``print``, a log handle) to events."""

    def consume(event: ProgressEvent) -> None:
        sink(render(event))

    return consume
