"""The asyncio serving core of the critical-range query service.

:class:`QueryService` answers :class:`~repro.query.normalize.Query`
objects at interactive latency over a :class:`~repro.store.result_store.
ResultStore` holding a campaign's results:

* a bounded in-memory LRU **hot cache** maps row content-addresses to
  their decoded rows and fitted :class:`~repro.query.surrogate.
  ConnectivityCurve`, so repeated and near-neighbor queries never touch
  disk — hot answers are dictionary lookups plus a handful of float
  operations;
* every store read (``contains`` probes, codec decodes) runs in a small
  thread pool through ``run_in_executor`` — the **event loop never
  blocks** on IO, which the benchmark asserts with a loop-lag probe;
* cell **confidence** reuses the exact completeness counting ``campaign
  status`` prints (:func:`repro.campaigns.completeness.
  cell_completeness`), cached per scenario and invalidated when a
  refinement lands;
* queries the grid cannot answer confidently — outside the swept span,
  or inside a cell below the confidence floor — return an immediate
  best-effort extrapolation flagged ``refine=true`` *and* enqueue one
  deduplicated refinement task onto the distributed
  :class:`~repro.distributed.queue.WorkQueue`.  The task is the same
  pickled ``measure_row`` closure ``campaign serve`` ships, so any
  stock ``campaign work`` worker completes it; the service drains the
  queue's result events, persists the new row through the campaign's
  own checkpoint and promotes it straight into the hot cache — the
  re-asked query is a hot hit.

Telemetry flows through :mod:`repro.telemetry.metrics` (``query.*``
counters and latency histograms), so a service wrapped in a telemetry
run reports into ``trace.jsonl`` / ``run_report.json`` like any
campaign process.
"""

from __future__ import annotations

import asyncio
import pickle
import queue as queue_module
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.campaigns.completeness import cell_completeness
from repro.campaigns.spec import CampaignSpec
from repro.experiments.figures import paper_node_count
from repro.experiments.registry import get_experiment
from repro.simulation.sweep import measure_row
from repro.store.result_store import StoreIntegrityError
from repro.telemetry import metrics
from repro.query.normalize import GridIndex, Query, ResolvedQuery, resolve
from repro.query.surrogate import ConnectivityCurve, blend_rows, fit_row

__all__ = ["Answer", "QueryService"]

#: Decoded cells (row + fitted curve) the hot cache keeps by default.
DEFAULT_CACHE_CELLS = 256

#: Store-IO threads; decodes are small, two suffice for a smoke store.
DEFAULT_IO_WORKERS = 4

#: Seconds between polls of the work queue's event stream.
_DRAIN_TICK = 0.05


@dataclass(frozen=True)
class Answer:
    """One served answer, JSON-shaped for the HTTP front end.

    ``value`` is the critical range (inverse queries) or the
    connectivity probability (forward queries); ``None`` when the store
    holds nothing to answer from (the query then always refines).
    ``source`` records how the value was produced: ``"exact"`` (a
    stored row answered directly), ``"interpolated"`` (between two grid
    rows), ``"extrapolated"`` (outside the grid span) or ``"none"``.
    """

    value: Optional[float]
    unit: str
    model: str
    side: float
    nodes: int
    source: str
    refine: bool
    hot: bool
    coverage: float
    scenario_id: str
    refine_task: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "model": self.model,
            "side": self.side,
            "nodes": self.nodes,
            "source": self.source,
            "refine": self.refine,
            "hot": self.hot,
            "coverage": self.coverage,
            "scenario": self.scenario_id,
            "refine_task": self.refine_task,
        }


@dataclass
class _Cell:
    """One hot-cache entry: a decoded row and its fitted curve."""

    side: float
    row: Dict[str, float]
    curve: ConnectivityCurve = field(repr=False)


class QueryService:
    """Interactive-latency query answering over a campaign store.

    Args:
        store: the campaign's result store (disk-backed for serving).
        spec: the campaign whose grid defines the servable surface.
        cache_cells: hot-cache bound (decoded rows + curves).
        confidence_floor: minimum cell coverage (see
            :class:`~repro.campaigns.completeness.CellCompleteness.
            coverage`) below which in-grid answers are flagged
            ``refine=true``.  1.0 (default) trusts only fully committed
            cells; 0.0 never refines in-grid answers that have rows.
        queue: the :class:`~repro.distributed.queue.WorkQueue`
            refinements are enqueued onto; ``None`` disables the
            cache-fill path (answers still flag ``refine``).
        fill_store: the store refinement *workers* write through —
            typically a :class:`~repro.distributed.remote_store.
            RemoteResultStore` pointing at the fill server fronting
            ``store``.  Defaults to ``store`` (in-process workers).
        io_workers: store-IO thread-pool width.
    """

    def __init__(
        self,
        store,
        spec: CampaignSpec,
        cache_cells: int = DEFAULT_CACHE_CELLS,
        confidence_floor: float = 1.0,
        queue=None,
        fill_store=None,
        io_workers: int = DEFAULT_IO_WORKERS,
    ) -> None:
        self.store = store
        self.spec = spec
        self.grid = GridIndex(spec)
        self.cache_cells = max(1, int(cache_cells))
        self.confidence_floor = float(confidence_floor)
        self.queue = queue
        self.fill_store = store if fill_store is None else fill_store
        self._cells: "OrderedDict[str, _Cell]" = OrderedDict()
        self._coverage: Dict[str, float] = {}
        self._refines: Dict[str, str] = {}  # side row key -> task id
        self._pending: Dict[str, Tuple[ResolvedQuery, str]] = {}
        self._refine_serial = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(io_workers)),
            thread_name_prefix="query-io",
        )
        self._drain_task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Begin draining refinement results (needs a running loop)."""
        if self.queue is not None and self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain_events())

    async def close(self) -> None:
        self._closed = True
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # The hot cache
    # ------------------------------------------------------------------ #
    def _cache_get(self, key: str) -> Optional[_Cell]:
        cell = self._cells.get(key)
        if cell is not None:
            self._cells.move_to_end(key)
        return cell

    def _cache_put(self, key: str, cell: _Cell) -> None:
        self._cells[key] = cell
        self._cells.move_to_end(key)
        while len(self._cells) > self.cache_cells:
            self._cells.popitem(last=False)
            metrics.counter("query.cache_evictions").add()

    def _load_cell_sync(self, key: str, side: float) -> Optional[_Cell]:
        """Blocking store read + curve fit (runs on the IO pool)."""
        try:
            row = self.store.get(key)
        except KeyError:
            return None
        except StoreIntegrityError:
            metrics.counter("query.integrity_misses").add()
            return None
        try:
            return _Cell(side=side, row=dict(row), curve=fit_row(row))
        except (TypeError, ValueError):
            metrics.counter("query.unfittable_rows").add()
            return None

    async def _cell_for(
        self, key: str, side: float
    ) -> Tuple[Optional[_Cell], bool]:
        """The cell at ``key``: ``(cell, was_hot)``; misses hit the store."""
        cell = self._cache_get(key)
        if cell is not None:
            return cell, True
        loop = asyncio.get_event_loop()
        cell = await loop.run_in_executor(
            self._executor, self._load_cell_sync, key, side
        )
        if cell is not None:
            self._cache_put(key, cell)
        return cell, False

    # ------------------------------------------------------------------ #
    # Confidence
    # ------------------------------------------------------------------ #
    def _coverage_sync(self, resolved: ResolvedQuery) -> float:
        experiment = get_experiment(resolved.scenario.experiment_id)
        checkpoint = self.grid.checkpoint_for(resolved.scenario)
        counts = cell_completeness(
            self.store,
            checkpoint,
            [float(v) for v in experiment.sweep_values(resolved.scenario.scale)],
            poisoned=frozenset(self.store.poison_keys()),
        )
        return counts.coverage

    async def _coverage_for(self, resolved: ResolvedQuery) -> float:
        scenario_id = resolved.scenario.scenario_id
        cached = self._coverage.get(scenario_id)
        if cached is not None:
            return cached
        loop = asyncio.get_event_loop()
        coverage = await loop.run_in_executor(
            self._executor, self._coverage_sync, resolved
        )
        self._coverage[scenario_id] = coverage
        return coverage

    # ------------------------------------------------------------------ #
    # The cache-fill path
    # ------------------------------------------------------------------ #
    def _refine_payload(self, resolved: ResolvedQuery) -> bytes:
        """The pickled closure a ``campaign work`` worker runs, verbatim.

        Mirrors ``DistributedCampaign._task_payload``: ``measure_row``
        over the experiment's measure bound to a checkpoint on the fill
        store, at the query's own side — so completing the task
        materializes exactly the row the re-asked query needs.
        """
        experiment = get_experiment(resolved.scenario.experiment_id)
        checkpoint = self.grid.checkpoint_for(
            resolved.scenario, store=self.fill_store
        )
        closure = (
            measure_row,
            (
                experiment.parameter_name,
                experiment.measure_for(resolved.scenario.scale, checkpoint),
                resolved.side,
            ),
            {},
        )
        return pickle.dumps(closure)

    def _enqueue_refine(
        self, resolved: ResolvedQuery, side_key: str
    ) -> Optional[str]:
        """Enqueue (once) the simulation that fills ``side_key``."""
        if self.queue is None:
            return None
        existing = self._refines.get(side_key)
        if existing is not None:
            return existing
        self._refine_serial += 1
        task_id = f"refine.{side_key[:12]}.{self._refine_serial}"
        self.queue.add(task_id, self._refine_payload(resolved))
        self._refines[side_key] = task_id
        self._pending[task_id] = (resolved, side_key)
        metrics.counter("query.refines_enqueued").add()
        return task_id

    async def _drain_events(self) -> None:
        """Fold finished refinements into the store and the hot cache."""
        loop = asyncio.get_event_loop()
        while not self._closed:
            try:
                event = self.queue.events.get_nowait()
            except queue_module.Empty:
                await asyncio.sleep(_DRAIN_TICK)
                continue
            kind, task_id = event[0], event[1]
            pending = self._pending.get(task_id)
            if pending is None:
                continue
            resolved, side_key = pending
            if kind == "result":
                row = pickle.loads(event[2])
                checkpoint = self.grid.checkpoint_for(
                    resolved.scenario, store=self.store
                )
                await loop.run_in_executor(
                    self._executor, checkpoint.save, resolved.side, row
                )
                try:
                    cell = _Cell(
                        side=resolved.side, row=dict(row), curve=fit_row(row)
                    )
                except (TypeError, ValueError):
                    cell = None
                if cell is not None:
                    self._cache_put(side_key, cell)
                self._pending.pop(task_id, None)
                self._refines.pop(side_key, None)
                self._coverage.pop(resolved.scenario.scenario_id, None)
                metrics.counter("query.refines_completed").add()
            elif kind == "giveup":
                self._pending.pop(task_id, None)
                self._refines.pop(side_key, None)
                metrics.counter("query.refines_poisoned").add()
            # "retried" keeps the task pending; nothing to fold yet.

    # ------------------------------------------------------------------ #
    # Answering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _evaluate(curve: ConnectivityCurve, query: Query) -> float:
        if query.inverse:
            return curve.range_for(query.probability)
        return curve.probability_at(query.range)

    async def ask(self, query: Query) -> Answer:
        """Answer one query; never blocks the loop on store IO."""
        started = time.perf_counter()
        metrics.counter("query.requests").add()
        resolved = resolve(self.grid, query)
        checkpoint = self.grid.checkpoint_for(resolved.scenario)
        side_key = (
            resolved.row_keys[0]
            if resolved.exact is not None
            else checkpoint.key_for(resolved.side)
        )
        unit = "range" if query.inverse else "probability"
        nodes = paper_node_count(resolved.side)

        # A row at the query's own side — an exact grid point, or a
        # previously refined side — answers directly and bit-identically.
        cell, hot = await self._cell_for(side_key, resolved.side)
        if cell is not None:
            coverage = await self._coverage_for(resolved)
            refine = (
                not resolved.out_of_grid and coverage < self.confidence_floor
            )
            task_id = (
                self._enqueue_refine(resolved, side_key) if refine else None
            )
            answer = Answer(
                value=self._evaluate(cell.curve, query),
                unit=unit,
                model=query.model,
                side=resolved.side,
                nodes=nodes,
                source="exact",
                refine=refine,
                hot=hot,
                coverage=coverage,
                scenario_id=resolved.scenario.scenario_id,
                refine_task=task_id,
            )
            self._observe(hot, started, answer)
            return answer

        # No direct row: blend the bracketing grid rows.
        cells = []
        all_hot = True
        for value, key in zip(resolved.bracket, resolved.row_keys):
            neighbor, neighbor_hot = await self._cell_for(key, value)
            all_hot = all_hot and neighbor_hot
            if neighbor is not None:
                cells.append(neighbor)
        coverage = await self._coverage_for(resolved)
        missing_rows = len(cells) < len(resolved.bracket)
        refine = (
            resolved.out_of_grid
            or missing_rows
            or coverage < self.confidence_floor
        )
        if resolved.out_of_grid:
            metrics.counter("query.out_of_grid").add()
        value: Optional[float]
        if len(cells) >= 2:
            row = blend_rows(
                cells[0].side,
                cells[0].row,
                cells[1].side,
                cells[1].row,
                resolved.side,
            )
            value = self._evaluate(fit_row(row), query)
            source = "extrapolated" if resolved.out_of_grid else "interpolated"
        elif cells:
            value = self._evaluate(cells[0].curve, query)
            source = "extrapolated"
        else:
            value = None
            source = "none"
        task_id = self._enqueue_refine(resolved, side_key) if refine else None
        answer = Answer(
            value=value,
            unit=unit,
            model=query.model,
            side=resolved.side,
            nodes=nodes,
            source=source,
            refine=refine,
            hot=all_hot and bool(cells),
            coverage=coverage,
            scenario_id=resolved.scenario.scenario_id,
            refine_task=task_id,
        )
        self._observe(answer.hot, started, answer)
        return answer

    @staticmethod
    def _observe(hot: bool, started: float, answer: Answer) -> None:
        elapsed = time.perf_counter() - started
        if hot:
            metrics.counter("query.hot_hits").add()
            metrics.histogram("query.hot_seconds").observe(elapsed)
        else:
            metrics.counter("query.cold_misses").add()
            metrics.histogram("query.cold_seconds").observe(elapsed)
        if answer.refine:
            metrics.counter("query.refine_answers").add()

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Service-level stats for ``GET /stats`` and the tests."""
        payload: Dict[str, Any] = {
            "models": self.grid.models,
            "cache_cells": len(self._cells),
            "cache_limit": self.cache_cells,
            "confidence_floor": self.confidence_floor,
            "pending_refines": len(self._pending),
        }
        if self.queue is not None:
            payload["queue"] = self.queue.stats()
        return payload
