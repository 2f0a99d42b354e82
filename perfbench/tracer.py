"""Span tracer the benchmark wraps around the program's layer entry points.

Nothing inside ``src/`` is edited: :func:`install` replaces a function of
the program with a timing wrapper in every loaded ``repro`` module that
holds it, so callers that imported it by name are traced too, and
:func:`Tracer.uninstall` puts the originals back.  Wrappers keep the
original ``__module__``/``__qualname__``, so a traced function still
pickles by reference into pool and queue workers.  Worker processes are
forked after the install and inherit the wrappers.

Each process keeps its own aggregates, one record per span name:

* ``calls``, ``total`` (inclusive seconds) and ``self`` (seconds not
  covered by a nested traced call in the same thread);
* ``rooted``: the self time spent under a *root* span, the outermost task
  boundary of a worker process (``runner.task``, ``runner.iteration``,
  ``distributed.worker``).  Root durations add up to the worker busy
  time, and the rooted self times of all spans partition it.

Pool workers leave through ``os._exit`` and never run ``atexit``
handlers, so every process appends its aggregates to
``<directory>/<pid>.jsonl`` whenever a task-boundary span closes
(*flush per task*); :func:`read` and :func:`merge` fold the files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "install", "merge", "read"]

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class _Frame:
    __slots__ = ("name", "start", "child", "rooted")

    def __init__(self, name: str, start: float, rooted: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.rooted = rooted


class Tracer:
    """Per-process span aggregates plus the patches that feed them."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.active = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.marks: Dict[str, float] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #
    def _reset(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.busy = 0.0

    def _after_fork(self) -> None:
        if not self.active:
            return
        # A forked child starts with no open spans and reports only what
        # it does itself, never a copy of its parent's aggregates.
        self._lock = threading.Lock()
        self._local = threading.local()
        self.marks = {}
        self._reset()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """``True`` when a span called ``name`` is open in this thread."""
        return any(frame.name == name for frame in self._stack())

    def parent(self) -> Optional[str]:
        """Name of the innermost span open in this thread, if any."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # ------------------------------------------------------------------ #
    def open(self, name: str, root: bool = False) -> Tuple[_Frame, bool]:
        stack = self._stack()
        is_root = root and not stack
        frame = _Frame(name, clock(), is_root or bool(stack and stack[-1].rooted))
        stack.append(frame)
        return frame, is_root

    def close(self, frame: _Frame, is_root: bool) -> float:
        end = clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        if stack:
            stack[-1].child += duration
        with self._lock:
            record = self.spans[frame.name]
            record[0] += 1
            record[1] += duration
            record[2] += own
            if frame.rooted:
                record[3] += own
            if is_root:
                self.busy += duration
        return duration

    def flush(self) -> None:
        """Append this process's aggregates to its file and reset them."""
        with self._lock:
            document = {
                "pid": os.getpid(),
                "worker": os.getpid() != self.main_pid,
                "spans": dict(self.spans),
                "counts": dict(self.counts),
                "samples": dict(self.samples),
                "busy": self.busy,
            }
            self._reset()
        path = self.directory / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document) + "\n")

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        fn: Callable[..., Any],
        name: Any,
        root: bool = False,
        flush: bool = False,
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """A timing wrapper of ``fn`` recording the span ``name``.

        ``name`` may be a callable of the tracer, deciding the span name
        per call from the spans open around it.  ``on_result(tracer, result,
        args, kwargs, start, duration)`` records counts once the call
        returned, before a ``flush`` span writes them out.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                # Concurrent coroutines interleave on one thread, so async
                # spans are recorded inclusive and never join the stack.
                start = clock()
                result = await fn(*args, **kwargs)
                duration = clock() - start
                label = name(tracer) if callable(name) else name
                with tracer._lock:
                    record = tracer.spans[label]
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration
                if on_result is not None:
                    on_result(tracer, result, args, kwargs, start, duration)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(tracer) if callable(name) else name
            frame, is_root = tracer.open(label, root)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame, is_root)
                if flush or is_root:
                    tracer.flush()
                raise
            duration = tracer.close(frame, is_root)
            if on_result is not None:
                on_result(tracer, result, args, kwargs, frame.start, duration)
            if flush or is_root:
                tracer.flush()
            return result

        return traced

    def patch_function(self, module: Any, attribute: str, **options: Any) -> None:
        """Trace ``module.attribute`` wherever a ``repro`` module holds it."""
        original = getattr(module, attribute)
        wrapper = self.wrap(original, **options)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._patches.append((loaded, key, original))

    def patch_method(self, cls: type, attribute: str, **options: Any) -> None:
        """Trace ``cls.attribute`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attribute]
        setattr(cls, attribute, self.wrap(original, **options))
        self._patches.append((cls, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched function and stop recording."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.active = False


# ---------------------------------------------------------------------- #
# Result hooks: the counts measured where the work happens.
# ---------------------------------------------------------------------- #
def _frames(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.count("mobility.frames", getattr(result, "shape", (0,))[0])


def _kernel_name(tracer: Tracer) -> str:
    # Stationary placements reach the batched kernel one frame at a time.
    if tracer.inside("runner.stationary"):
        return "kernel.mst_single"
    return "kernel.mst_batch"


def _kernel(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    shape = getattr(args[0], "shape", None)
    if shape is None or len(shape) != 3:
        return
    batch, n = int(shape[0]), int(shape[1])
    tracer.count("kernel.computed_bytes", batch * n * n * 8)
    if tracer.inside("runner.stationary"):
        tracer.count("kernel.mst_single_calls", batch)
    else:
        tracer.count("kernel.mst_batch_frames", batch)


def _breakpoints(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.count("engine.breakpoints", len(getattr(result, "curve_ranges", ())))


def _task(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.count("scheduler.tasks")
    tracer.sample("scheduler.task_start", start)
    tracer.sample("scheduler.task_s", duration)
    tracer.marks["measure"] = duration


def _encode(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    if tracer.parent() == "store.put":
        tracer.count("store.put_bytes", len(result[2]))


def _decode(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    if tracer.parent() == "store.get":
        payload = args[1] if len(args) > 1 else kwargs.get("payload", b"")
        tracer.count("store.get_bytes", len(payload))


def _calls(name: str) -> Callable[..., None]:
    """A result hook counting each call under ``name``."""

    def hook(tracer: Tracer, result, args, kwargs, start, duration) -> None:
        tracer.count(name)

    return hook


def _queue_lease(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.count("distributed.polls")
    if isinstance(result, dict) and result.get("status") == "ok":
        tracer.count("distributed.leases")


def _expiries(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.count("distributed.lease_expiries", int(result or 0))


def _http(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    body = kwargs.get("body") if "body" in kwargs else (args[3] if len(args) > 3 else None)
    tracer.count("distributed.http_requests")
    tracer.count("distributed.wire_bytes", len(body or b"") + len(result[2]))


def _client_lease(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    if isinstance(result, dict) and result.get("status") == "ok":
        tracer.marks["lease_start"] = start
        tracer.marks.pop("measure", None)


def _client_publish(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    leased = tracer.marks.pop("lease_start", None)
    measured = tracer.marks.pop("measure", None)
    if leased is not None and measured is not None:
        overhead = start + duration - leased - measured
        tracer.sample("distributed.task_overhead_s", overhead)


def _ask(tracer: Tracer, result, args, kwargs, start, duration) -> None:
    tracer.sample("query.service_s", duration)
    if not getattr(result, "hot", True):
        tracer.sample("query.cold_s", duration)


#: Traced entry points: ``(owner, attribute, span options)``, where the
#: owner is a module under ``repro`` or ``module:Class``.
_ENTRY_POINTS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("connectivity.critical_range", "minimum_spanning_edges_batch",
     dict(name=_kernel_name, on_result=_kernel)),
    ("connectivity.critical_range", "minimum_spanning_edges",
     dict(name="kernel.mst_single", on_result=_calls("kernel.mst_single_calls"))),
    ("connectivity.critical_range", "critical_range",
     dict(name="kernel.mst_single", on_result=_calls("kernel.mst_single_calls"))),
    ("simulation.engine", "frame_statistics_columns",
     dict(name="engine.sweep", on_result=_breakpoints)),
    ("simulation.runner", "collect_frame_statistics", dict(name="runner.collect")),
    ("simulation.runner", "stationary_critical_range", dict(name="runner.stationary")),
    ("simulation.runner", "_frame_statistics_iteration",
     dict(name="runner.iteration", root=True, on_result=_calls("runner.iterations"))),
    ("simulation.shm", "share_columns", dict(name="runner.handoff")),
    ("simulation.shm", "adopt_result", dict(name="runner.handoff")),
    ("simulation.sweep", "measure_row",
     dict(name="runner.task", root=True, flush=True, on_result=_task)),
    ("simulation.search", "estimate_thresholds_from_statistics",
     dict(name="metrics.thresholds")),
    ("simulation.search", "estimate_component_thresholds_from_statistics",
     dict(name="metrics.thresholds")),
    ("simulation.search", "average_component_fraction_at_range",
     dict(name="metrics.thresholds")),
    ("store.codecs", "encode_payload", dict(name="store.encode", on_result=_encode)),
    ("store.codecs", "decode_payload", dict(name="store.decode", on_result=_decode)),
    ("store.keys", "cache_key", dict(name="store.key")),
    ("query.normalize", "resolve", dict(name="query.resolve")),
    ("query.surrogate", "fit_row", dict(name="query.fit")),
    ("query.surrogate", "blend_rows", dict(name="query.fit")),
    ("store.result_store:ResultStore", "put",
     dict(name="store.put", on_result=_calls("store.put_calls"))),
    ("store.result_store:ResultStore", "get",
     dict(name="store.get", on_result=_calls("store.get_calls"))),
    ("store.result_store:ResultStore", "sweep_dead_staging",
     dict(name="scheduler.respawn", on_result=_calls("scheduler.respawns"))),
    ("distributed.queue:WorkQueue", "lease",
     dict(name="distributed.queue", on_result=_queue_lease)),
    ("distributed.queue:WorkQueue", "publish_result", dict(name="distributed.queue")),
    ("distributed.queue:WorkQueue", "_expire_locked",
     dict(name="distributed.queue_expire", on_result=_expiries)),
    ("distributed.remote_store:RemoteResultStore", "_request",
     dict(name="distributed.http", on_result=_http)),
    ("distributed.remote_store:RemoteResultStore", "get",
     dict(name="distributed.remote_store")),
    ("distributed.remote_store:RemoteResultStore", "put",
     dict(name="distributed.remote_store")),
    ("distributed.worker:QueueClient", "lease",
     dict(name="distributed.lease", on_result=_client_lease)),
    ("distributed.worker:QueueClient", "publish_result",
     dict(name="distributed.publish", on_result=_client_publish)),
    ("query.service:QueryService", "ask", dict(name="query.ask", on_result=_ask)),
)


def _owner(path: str) -> Any:
    """The module (or class) an entry point lives on, or ``None``."""
    # Packages re-export functions under their modules' names, so import
    # the modules themselves.
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(f"repro.{module_name}")
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def install(directory: Path) -> Tracer:
    """Trace every layer entry point the benchmark attributes time to.

    Every owner is imported before anything is patched, so no module
    imported later keeps a wrapper that :meth:`Tracer.uninstall` cannot
    find.  An entry point that a later change removes is skipped, and the
    metrics it fed read 0.
    """
    import repro.mobility  # noqa: F401  (registers every model class)
    from repro.mobility.base import MobilityModel

    owners = {path: _owner(path) for path, _, _ in _ENTRY_POINTS}
    tracer = Tracer(directory)
    pending = [MobilityModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("trajectory", "advance"):
            if method in cls.__dict__:
                tracer.patch_method(
                    cls, method, name="mobility.trajectory",
                    on_result=_frames if method == "trajectory" else None,
                )
    for path, attribute, options in _ENTRY_POINTS:
        owner = owners[path]
        if isinstance(owner, type):
            if attribute in owner.__dict__:
                tracer.patch_method(owner, attribute, **options)
        elif owner is not None and hasattr(owner, attribute):
            tracer.patch_function(owner, attribute, **options)
    return tracer


def read(directory: Path) -> List[Dict[str, Any]]:
    """Every record the processes flushed under ``directory``."""
    return [
        json.loads(line)
        for path in sorted(Path(directory).glob("*.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def merge(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold flushed records into one set of aggregates.

    Worker-process spans are also kept apart: the attribution table covers
    worker busy time only, while layer metrics sum every process.
    """
    merged: Dict[str, Any] = {
        "spans": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
        "worker_spans": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
        "counts": defaultdict(float),
        "samples": defaultdict(list),
        "busy": 0.0,
    }
    for record in records:
        for name, values in record["spans"].items():
            targets = [merged["spans"]]
            if record["worker"]:
                targets.append(merged["worker_spans"])
            for target in targets:
                for index, value in enumerate(values):
                    target[name][index] += value
        for name, value in record["counts"].items():
            merged["counts"][name] += value
        for name, values in record["samples"].items():
            merged["samples"][name].extend(values)
        if record["worker"]:
            merged["busy"] += record["busy"]
    return merged
