"""Process-local metric instruments drained into the trace sink.

The system already computes the numbers worth watching — cache hits,
retries, respawns, store latencies — and drops them on the
floor.  These instruments give them somewhere to land: ``counter``,
``gauge`` and ``histogram`` are module-level accessors onto one
per-process registry, cheap enough (a dict lookup and an add) to sit in
hot paths unconditionally.

Instruments accumulate *deltas*: :func:`drain` snapshots and resets the
registry, and the tracing layer appends the snapshot to the JSONL sink
at flush time.  Because every process reports deltas rather than
absolutes, the report builder can simply merge records — counters sum,
histograms combine, gauges take the latest value — without caring which
pool worker reported what.  A pid guard rebuilds the registry after a
fork so a child never re-reports its parent's accumulation.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "drain",
    "gauge",
    "histogram",
    "merge",
]


class Counter:
    """A monotonically increasing sum (reset on drain)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A last-write-wins level (e.g. a pool size)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Count/total/min/max of observed values (reset on drain)."""

    kind = "histogram"
    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class _Registry:
    __slots__ = ("pid", "instruments")

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.instruments: Dict[str, Any] = {}

    def get(self, name: str, factory: type) -> Any:
        instrument = self.instruments.get(name)
        if instrument is None:
            instrument = factory()
            self.instruments[name] = instrument
        return instrument


_REGISTRY: Optional[_Registry] = None


def _registry() -> _Registry:
    global _REGISTRY
    registry = _REGISTRY
    if registry is None or registry.pid != os.getpid():
        _REGISTRY = registry = _Registry()
    return registry


def counter(name: str) -> Counter:
    return _registry().get(name, Counter)


def gauge(name: str) -> Gauge:
    return _registry().get(name, Gauge)


def histogram(name: str) -> Histogram:
    return _registry().get(name, Histogram)


def drain() -> Dict[str, Dict[str, Any]]:
    """Snapshot and reset this process's instruments.

    Instruments with nothing to report (zero counters, empty histograms,
    unset gauges) are omitted so idle flushes stay record-free.
    """
    registry = _registry()
    snapshot: Dict[str, Dict[str, Any]] = {}
    for name, instrument in registry.instruments.items():
        if isinstance(instrument, Counter) and instrument.value == 0:
            continue
        if isinstance(instrument, Histogram) and instrument.count == 0:
            continue
        if isinstance(instrument, Gauge) and instrument.value is None:
            continue
        snapshot[name] = instrument.snapshot()
    registry.instruments = {}
    return snapshot


def merge(snapshots: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Fold drained snapshots (any process, any order) into totals.

    Counters sum; histograms combine count/total/min/max; gauges keep
    the last reported value.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            kind = record.get("kind")
            existing = merged.get(name)
            if existing is None:
                merged[name] = dict(record)
                continue
            if kind == "counter":
                existing["value"] = existing.get("value", 0.0) + record.get(
                    "value", 0.0
                )
            elif kind == "histogram":
                existing["count"] = existing.get("count", 0) + record.get(
                    "count", 0
                )
                existing["total"] = existing.get("total", 0.0) + record.get(
                    "total", 0.0
                )
                for key, pick in (("min", min), ("max", max)):
                    left, right = existing.get(key), record.get(key)
                    if left is None:
                        existing[key] = right
                    elif right is not None:
                        existing[key] = pick(left, right)
            else:  # gauge: last write wins
                existing["value"] = record.get("value")
    return merged
