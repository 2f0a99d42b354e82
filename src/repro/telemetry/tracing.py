"""Cross-process tracing: spans, context propagation, JSONL trace sinks.

A campaign is a tree of work — campaign → scenario → task → iteration —
executed across a parent process and its pool or queue workers.  This
module records that tree as *spans*: each span
carries a ``trace_id`` (one per campaign run), its own ``span_id``, its
parent's ``span_id``, wall and CPU durations, and structured attributes.
Reassembling the parent/child links reconstructs the full execution
hierarchy no matter which process ran which piece.

Activation mirrors :mod:`repro.faults`: :func:`start_run` creates a
per-run directory (``run.json`` manifest + ``trace.jsonl`` sink) and
points the ``REPRO_TRACE`` environment variable at it.  Pool workers
inherit the environment under fork and spawn alike, so a single call in
the driving process arms every process of the run.  While the variable
is unset, every hook in this module is a near-free no-op (one
``os.environ`` lookup), which is what keeps the instrumentation in
production code paths.

Crossing process boundaries
---------------------------
Parent context travels *inside the task closures* the schedulers already
pickle: :func:`propagate` wraps a callable with the current (or an
explicit) span context and returns a picklable shim that re-attaches the
context in the worker before calling through.  Spans the worker then
opens parent correctly under the remote span.  When tracing is inactive
the callable is returned unchanged — zero pickling or call overhead.

Crash tolerance
---------------
Workers buffer span records locally and flush them as a single
``O_APPEND`` write of complete lines.  POSIX appends of one ``write()``
call do not interleave, so a SIGKILLed worker loses only its unflushed
tail — the ``trace.jsonl`` stays parseable line by line.  A *failing*
sink (disk full, permissions, an armed ``telemetry.flush`` fault) must
never fail the campaign: the first error degrades tracing to dropped
spans with a single :class:`TelemetryDegradedWarning` per process, and
every later hook is a cheap no-op.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass, asdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro import faults
from repro.telemetry import metrics as _metrics

__all__ = [
    "ENV_VAR",
    "FLUSH_SITE",
    "RUN_MANIFEST",
    "REPORT_FILE",
    "Span",
    "SpanContext",
    "TRACE_FILE",
    "TelemetryDegradedWarning",
    "TelemetryRun",
    "annotate",
    "annotated",
    "attach",
    "begin_span",
    "current_context",
    "enabled",
    "flush",
    "propagate",
    "span",
    "start_run",
]

#: Environment variable naming the active run directory.  Pool workers
#: inherit the parent's environment (fork and spawn alike), so setting
#: it once in the driving process arms every process of the run.
ENV_VAR = "REPRO_TRACE"

#: Fault-injection site guarding every sink write (see :mod:`repro.faults`).
FLUSH_SITE = "telemetry.flush"

TRACE_FILE = "trace.jsonl"
RUN_MANIFEST = "run.json"
REPORT_FILE = "run_report.json"

#: Buffered records per process before an automatic flush.
_BUFFER_LIMIT = 128


class TelemetryDegradedWarning(UserWarning):
    """The trace sink failed; tracing degraded to dropped spans."""


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span: enough to parent children on."""

    trace_id: str
    span_id: str

    def to_payload(self) -> Dict[str, str]:
        return {"trace": self.trace_id, "span": self.span_id}

    @staticmethod
    def from_payload(payload: Dict[str, str]) -> "SpanContext":
        return SpanContext(trace_id=payload["trace"], span_id=payload["span"])


class _ProcessState:
    """Per-process tracing state, rebuilt on pid change.

    Forked pool workers inherit the parent's module globals — including
    any *buffered but unflushed* parent spans.  The pid guard makes a
    child start from an empty buffer and stack, so parent spans are
    flushed exactly once, by the parent.
    """

    __slots__ = (
        "directory",
        "trace_id",
        "pid",
        "buffer",
        "stack",
        "degraded",
        "warned",
    )

    def __init__(self, directory: str, trace_id: str) -> None:
        self.directory = directory
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.buffer: List[Dict[str, Any]] = []
        self.stack: List[SpanContext] = []
        self.degraded = False
        self.warned = False


_STATE: Optional[_ProcessState] = None


def _read_trace_id(directory: str) -> str:
    try:
        manifest = json.loads(
            (Path(directory) / RUN_MANIFEST).read_text(encoding="utf-8")
        )
        return str(manifest["trace_id"])
    except Exception:
        return "trace"


def _state() -> Optional[_ProcessState]:
    directory = os.environ.get(ENV_VAR)
    if not directory:
        return None
    global _STATE
    state = _STATE
    if (
        state is not None
        and state.directory == directory
        and state.pid == os.getpid()
    ):
        return state
    _STATE = _ProcessState(directory, _read_trace_id(directory))
    return _STATE


def _reset_state() -> None:
    global _STATE
    _STATE = None


def enabled() -> bool:
    """``True`` while a run directory is armed for this process."""
    return _state() is not None


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def _degrade(state: _ProcessState, error: BaseException) -> None:
    state.degraded = True
    state.buffer = []
    if not state.warned:
        state.warned = True
        warnings.warn(
            f"telemetry sink degraded, dropping further spans: {error!r}",
            TelemetryDegradedWarning,
            stacklevel=3,
        )


def flush() -> None:
    """Write buffered records (and metric deltas) to the trace sink.

    Never raises: the first sink failure degrades this process to
    dropped spans with one :class:`TelemetryDegradedWarning`.
    """
    state = _state()
    if state is None or state.degraded:
        return
    records = state.buffer
    state.buffer = []
    deltas = _metrics.drain()
    if deltas:
        records = records + [
            {
                "type": "metrics",
                "pid": state.pid,
                "time": time.time(),
                "metrics": deltas,
            }
        ]
    if not records:
        return
    data = "".join(
        json.dumps(record, separators=(",", ":"), default=str) + "\n"
        for record in records
    ).encode("utf-8")
    path = os.path.join(state.directory, TRACE_FILE)
    try:
        faults.fire(FLUSH_SITE, context=path)
        descriptor = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, data)
        finally:
            os.close(descriptor)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as error:
        _degrade(state, error)


def _record(state: _ProcessState, record: Dict[str, Any]) -> None:
    if state.degraded:
        return
    state.buffer.append(record)
    if len(state.buffer) >= _BUFFER_LIMIT:
        flush()


class Span:
    """A live span; :meth:`end` freezes it and queues it for the sink."""

    __slots__ = (
        "name",
        "context_",
        "parent_id",
        "attributes",
        "start_wall",
        "_start_perf",
        "_start_cpu",
        "_ended",
    )

    def __init__(
        self,
        name: str,
        context: SpanContext,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.context_ = context
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()
        self._start_cpu = time.process_time()
        self._ended = False

    def context(self) -> SpanContext:
        return self.context_

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span (last write per key wins)."""
        self.attributes.update(attributes)
        return self

    def end(self, status: str = "ok") -> None:
        """Freeze the span and queue its record for the sink."""
        if self._ended:
            return
        self._ended = True
        state = _state()
        if state is None or state.pid != os.getpid():
            return  # run finished or we are a fork: drop silently
        record = {
            "type": "span",
            "name": self.name,
            "trace": self.context_.trace_id,
            "span": self.context_.span_id,
            "parent": self.parent_id,
            "pid": state.pid,
            "start": self.start_wall,
            "wall": time.perf_counter() - self._start_perf,
            "cpu": time.process_time() - self._start_cpu,
            "status": status,
        }
        if self.attributes:
            record["attrs"] = self.attributes
        _record(state, record)


class _NullSpan:
    """Do-nothing span returned while tracing is inactive."""

    __slots__ = ()

    def context(self) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def end(self, status: str = "ok") -> None:
        return None


NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]
ParentLike = Union[Span, SpanContext, None]


def _parent_context(state: _ProcessState, parent: ParentLike) -> Optional[SpanContext]:
    if isinstance(parent, Span):
        return parent.context()
    if isinstance(parent, SpanContext):
        return parent
    return state.stack[-1] if state.stack else None


def begin_span(
    name: str, parent: ParentLike = None, **attributes: Any
) -> SpanLike:
    """Open a span without touching the ambient context stack.

    For interleaved lifetimes (the scheduler keeps many scenario spans
    open at once); the caller owns :meth:`Span.end`.  Prefer the
    :func:`span` context manager for properly nested work.
    """
    state = _state()
    if state is None or state.degraded:
        return NULL_SPAN
    parent_context = _parent_context(state, parent)
    trace_id = parent_context.trace_id if parent_context else state.trace_id
    return Span(
        name,
        SpanContext(trace_id=trace_id, span_id=_new_span_id()),
        parent_context.span_id if parent_context else None,
        dict(attributes),
    )


@contextmanager
def span(
    name: str, parent: ParentLike = None, **attributes: Any
) -> Iterator[SpanLike]:
    """Open a span as the ambient context for the enclosed block.

    Children opened inside the block (including in *other processes*,
    via :func:`propagate`) parent under it.  When the stack empties the
    buffer is flushed — the natural boundary at which a pool worker has
    finished its task and its spans should land on disk.
    """
    opened = begin_span(name, parent=parent, **attributes)
    if opened is NULL_SPAN:
        yield opened
        return
    state = _state()
    if state is None:  # pragma: no cover - disarmed between calls
        yield opened
        return
    state.stack.append(opened.context())
    try:
        yield opened
    except BaseException:
        _pop_context(state, opened.context())
        opened.end(status="error")
        if not state.stack:
            flush()
        raise
    else:
        _pop_context(state, opened.context())
        opened.end()
        if not state.stack:
            flush()


def _pop_context(state: _ProcessState, context: SpanContext) -> None:
    if state.pid != os.getpid():
        state.stack = []
        return
    while state.stack:
        if state.stack.pop() == context:
            return


def current_context() -> Optional[SpanContext]:
    """The innermost ambient span context, or ``None``."""
    state = _state()
    if state is None:
        return None
    return state.stack[-1] if state.stack else None


@contextmanager
def attach(payload: Optional[Dict[str, str]]) -> Iterator[None]:
    """Adopt a remote parent context for the enclosed block.

    ``payload`` is the dict a :func:`propagate` shim carried across the
    process boundary.  Spans opened inside parent under the remote span;
    the buffer is flushed when the stack empties (end of the task).
    """
    state = _state()
    if state is None or payload is None:
        yield
        return
    context = SpanContext.from_payload(payload)
    state.stack.append(context)
    try:
        yield
    finally:
        _pop_context(state, context)
        if not state.stack:
            flush()


@dataclass(frozen=True)
class _TracedCall:
    """Picklable shim carrying a parent span context to a worker."""

    payload: Dict[str, str]
    fn: Callable[..., Any]

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        with attach(self.payload):
            return self.fn(*args, **kwargs)


def propagate(
    fn: Callable[..., Any], parent: ParentLike = None
) -> Callable[..., Any]:
    """Wrap ``fn`` so it runs under the current (or given) span context.

    The returned shim is picklable and cheap; when tracing is inactive
    (or there is no context to carry) ``fn`` is returned unchanged, so
    the pool pickles the exact same object it always did.
    """
    state = _state()
    if state is None or state.degraded:
        return fn
    context = _parent_context(state, parent)
    if context is None:
        return fn
    return _TracedCall(context.to_payload(), fn)


def annotate(name: str, parent: ParentLike = None, **data: Any) -> None:
    """Record a point-in-time event attached to the ambient span."""
    state = _state()
    if state is None or state.degraded:
        return
    context = _parent_context(state, parent)
    record: Dict[str, Any] = {
        "type": "event",
        "name": name,
        "trace": context.trace_id if context else state.trace_id,
        "span": context.span_id if context else None,
        "pid": state.pid,
        "time": time.time(),
    }
    if data:
        record["data"] = data
    _record(state, record)


def annotated(consumer: Callable[[Any], None]) -> Callable[[Any], None]:
    """Wrap a progress-event consumer so every event is also traced.

    The consumer sees the identical event object — CLI text stays byte
    for byte what it was; the trace gains the event as an annotation.
    """

    def consume(event: Any) -> None:
        fields = asdict(event) if is_dataclass(event) else {"event": str(event)}
        annotate(type(event).__name__, **fields)
        consumer(event)

    return consume


class TelemetryRun:
    """Handle on an armed run; :meth:`finish` seals it into a report."""

    def __init__(
        self,
        directory: Path,
        run_id: str,
        trace_id: str,
        campaign: Optional[str],
        started: float,
        previous: Optional[str],
    ) -> None:
        self.directory = directory
        self.run_id = run_id
        self.trace_id = trace_id
        self.campaign = campaign
        self.started = started
        self._previous = previous
        self._finished = False

    def finish(self, result: Any = None) -> Optional[Path]:
        """Flush, disarm the environment and write ``run_report.json``.

        ``result`` may be a :class:`repro.campaigns.runner.CampaignResult`
        (its outcomes fold into the report) or ``None`` for a run that
        raised.  Returns the report path, or ``None`` when the sink is
        too degraded to write one.  Never raises.
        """
        if self._finished:
            return None
        self._finished = True
        flush()
        if self._previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = self._previous
        _reset_state()
        try:
            from repro.telemetry import report as _report

            return _report.write_report(
                self.directory, result=result, finished=time.time()
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            warnings.warn(
                f"telemetry run report not written: {error!r}",
                TelemetryDegradedWarning,
                stacklevel=2,
            )
            return None


def start_run(
    directory: Union[str, Path], campaign: Optional[str] = None
) -> TelemetryRun:
    """Create a run directory under ``directory`` and arm tracing.

    Writes the ``run.json`` manifest, exports :data:`ENV_VAR` (workers
    inherit it) and resets this process's buffers and metric registry so
    the run starts from a clean slate.  The caller must call
    :meth:`TelemetryRun.finish` (in a ``finally``) to disarm.
    """
    root = Path(directory)
    started = time.time()
    run_id = "{}-{}".format(
        time.strftime("%Y%m%d-%H%M%S", time.gmtime(started)),
        uuid.uuid4().hex[:8],
    )
    run_dir = root / run_id
    run_dir.mkdir(parents=True, exist_ok=False)
    trace_id = uuid.uuid4().hex
    manifest = {
        "run_id": run_id,
        "trace_id": trace_id,
        "campaign": campaign,
        "started": started,
        "pid": os.getpid(),
    }
    (run_dir / RUN_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(run_dir)
    _reset_state()
    _metrics.drain()  # discard anything accumulated before the run
    return TelemetryRun(
        directory=run_dir,
        run_id=run_id,
        trace_id=trace_id,
        campaign=campaign,
        started=started,
        previous=previous,
    )
