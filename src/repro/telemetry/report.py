"""Run reports: aggregate a JSONL trace into one queryable artifact.

A run directory (see :func:`repro.telemetry.tracing.start_run`) holds a
``run.json`` manifest and the append-only ``trace.jsonl`` every process
of the campaign flushed spans, events and metric deltas into.  This
module folds those lines into a single ``run_report.json``: span totals
by name, the slowest individual spans, merged metrics, event counts and
per-scenario wall-clock / last-activity — the answers ``campaign
report`` and ``campaign status`` print.

The reader is deliberately forgiving: a SIGKILLed worker may leave the
file's final line truncated, so each line parses independently and bad
lines are counted, not fatal.  The report can always be rebuilt from
the trace — ``run_report.json`` is a cache of this aggregation, written
at campaign end, rebuilt on demand when a run crashed before sealing.

A second exporter emits the Chrome ``trace_event`` JSON array format
(``ph: "X"`` complete events, microsecond timestamps), so any run opens
as a flame view in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import RUN_MANIFEST, REPORT_FILE, TRACE_FILE

__all__ = [
    "build_report",
    "chrome_trace",
    "latest_run_dir",
    "list_runs",
    "load_or_build_report",
    "read_trace",
    "render_report",
    "write_report",
]

#: Slowest individual spans kept in the report.
_SLOWEST_LIMIT = 20


def read_trace(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Parse ``trace.jsonl`` line by line; never raises on bad lines.

    Returns ``{"spans": [...], "events": [...], "metrics": [...],
    "bad_lines": n}``.  A truncated tail (SIGKILLed writer) or a corrupt
    line only bumps ``bad_lines``.
    """
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    metric_records: List[Dict[str, Any]] = []
    bad_lines = 0
    path = Path(run_dir) / TRACE_FILE
    if path.is_file():
        with path.open("r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    bad_lines += 1
                    continue
                kind = record.get("type")
                if kind == "span":
                    spans.append(record)
                elif kind == "event":
                    events.append(record)
                elif kind == "metrics":
                    metric_records.append(record)
                else:
                    bad_lines += 1
    return {
        "spans": spans,
        "events": events,
        "metrics": metric_records,
        "bad_lines": bad_lines,
    }


def _span_scenario(record: Dict[str, Any]) -> Optional[str]:
    attrs = record.get("attrs") or {}
    scenario = attrs.get("scenario")
    return str(scenario) if scenario is not None else None


def _aggregate_scenarios(
    spans: List[Dict[str, Any]], events: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    scenarios: Dict[str, Dict[str, Any]] = {}

    def entry(scenario_id: str) -> Dict[str, Any]:
        return scenarios.setdefault(
            scenario_id, {"wall_seconds": 0.0, "last_activity": None}
        )

    def touch(scenario_id: str, moment: Optional[float]) -> None:
        if moment is None:
            return
        record = entry(scenario_id)
        if record["last_activity"] is None or moment > record["last_activity"]:
            record["last_activity"] = moment

    for record in spans:
        scenario_id = _span_scenario(record)
        if scenario_id is None:
            continue
        start = record.get("start")
        wall = record.get("wall")
        if record.get("name") == "scenario" and isinstance(wall, (int, float)):
            entry(scenario_id)["wall_seconds"] += float(wall)
        if isinstance(start, (int, float)) and isinstance(wall, (int, float)):
            touch(scenario_id, float(start) + float(wall))
    for record in events:
        data = record.get("data") or {}
        scenario_id = data.get("scenario_id")
        if scenario_id is None:
            continue
        moment = record.get("time")
        touch(
            str(scenario_id),
            float(moment) if isinstance(moment, (int, float)) else None,
        )
    return scenarios


def build_report(
    run_dir: Union[str, Path],
    result: Any = None,
    finished: Optional[float] = None,
) -> Dict[str, Any]:
    """Aggregate a run directory's trace into the report dictionary."""
    run_dir = Path(run_dir)
    try:
        manifest = json.loads(
            (run_dir / RUN_MANIFEST).read_text(encoding="utf-8")
        )
    except Exception:
        manifest = {}
    trace = read_trace(run_dir)
    spans = trace["spans"]
    events = trace["events"]

    by_name: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        name = str(record.get("name"))
        wall = float(record.get("wall") or 0.0)
        cpu = float(record.get("cpu") or 0.0)
        bucket = by_name.setdefault(
            name,
            {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0,
             "max_wall_seconds": 0.0},
        )
        bucket["count"] += 1
        bucket["wall_seconds"] += wall
        bucket["cpu_seconds"] += cpu
        bucket["max_wall_seconds"] = max(bucket["max_wall_seconds"], wall)

    slowest = sorted(
        spans, key=lambda record: float(record.get("wall") or 0.0), reverse=True
    )[:_SLOWEST_LIMIT]
    slowest_rows = [
        {
            "name": record.get("name"),
            "wall_seconds": record.get("wall"),
            "cpu_seconds": record.get("cpu"),
            "pid": record.get("pid"),
            "span": record.get("span"),
            "parent": record.get("parent"),
            "attrs": record.get("attrs") or {},
        }
        for record in slowest
    ]

    event_counts: Dict[str, int] = {}
    for record in events:
        name = str(record.get("name"))
        event_counts[name] = event_counts.get(name, 0) + 1

    merged_metrics = _metrics.merge(
        [record.get("metrics") or {} for record in trace["metrics"]]
    )

    scenarios = _aggregate_scenarios(spans, events)

    started = manifest.get("started")
    report: Dict[str, Any] = {
        "run_id": manifest.get("run_id", run_dir.name),
        "trace_id": manifest.get("trace_id"),
        "campaign": manifest.get("campaign"),
        "started": started,
        "finished": finished,
        "duration_seconds": (
            finished - started
            if isinstance(started, (int, float)) and finished is not None
            else None
        ),
        "spans": {
            "count": len(spans),
            "bad_lines": trace["bad_lines"],
            "by_name": by_name,
            "slowest": slowest_rows,
        },
        "events": event_counts,
        "metrics": merged_metrics,
        "scenarios": scenarios,
    }
    if result is not None:
        report["outcome"] = {
            "cache_hits": getattr(result, "cache_hits", None),
            "computed_values": getattr(result, "computed_values", None),
            "quarantined_tasks": getattr(result, "quarantined_tasks", None),
            "scenarios": sorted(getattr(result, "sweeps", {}) or {}),
        }
    return report


def write_report(
    run_dir: Union[str, Path],
    result: Any = None,
    finished: Optional[float] = None,
) -> Path:
    """Build and seal ``run_report.json`` inside ``run_dir``."""
    run_dir = Path(run_dir)
    report = build_report(run_dir, result=result, finished=finished)
    path = run_dir / REPORT_FILE
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str),
        encoding="utf-8",
    )
    return path


def load_or_build_report(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """The sealed report, or a fresh aggregation for an unsealed run."""
    path = Path(run_dir) / REPORT_FILE
    if path.is_file():
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            pass  # half-written seal: fall back to the trace
    return build_report(run_dir)


def list_runs(telemetry_root: Union[str, Path]) -> List[Path]:
    """Run directories under ``telemetry_root``, oldest first."""
    root = Path(telemetry_root)
    if not root.is_dir():
        return []
    runs = [
        child
        for child in root.iterdir()
        if child.is_dir() and (child / RUN_MANIFEST).is_file()
    ]
    return sorted(runs, key=lambda child: child.name)


def latest_run_dir(telemetry_root: Union[str, Path]) -> Optional[Path]:
    """The newest run directory, or ``None`` when no run exists.

    Run ids sort chronologically (a UTC timestamp prefix to the
    microsecond), so the newest run is the lexicographically last
    directory name.
    """
    runs = list_runs(telemetry_root)
    return runs[-1] if runs else None


def _metric_value(metrics: Dict[str, Any], name: str) -> float:
    entry = metrics.get(name) or {}
    value = entry.get("value")
    return float(value) if isinstance(value, (int, float)) else 0.0


def render_report(report: Dict[str, Any], limit: int = 10) -> str:
    """The human-readable ``campaign report`` text for a report dict."""
    lines: List[str] = []
    run_id = report.get("run_id")
    campaign = report.get("campaign")
    header = f"Run {run_id}"
    if campaign:
        header += f" of campaign {campaign!r}"
    duration = report.get("duration_seconds")
    if isinstance(duration, (int, float)):
        header += f" ({duration:.2f}s)"
    lines.append(header)

    spans = report.get("spans") or {}
    lines.append(
        f"Spans: {spans.get('count', 0)} recorded, "
        f"{spans.get('bad_lines', 0)} bad line(s)"
    )
    by_name = spans.get("by_name") or {}
    if by_name:
        width = max(len(name) for name in by_name)
        for name in sorted(by_name):
            bucket = by_name[name]
            lines.append(
                f"  {name:<{width}}  count {bucket.get('count', 0):>5}  "
                f"wall {bucket.get('wall_seconds', 0.0):>9.3f}s  "
                f"cpu {bucket.get('cpu_seconds', 0.0):>9.3f}s  "
                f"max {bucket.get('max_wall_seconds', 0.0):>8.3f}s"
            )

    slowest = (spans.get("slowest") or [])[:limit]
    if slowest:
        lines.append(f"Slowest spans (top {len(slowest)}):")
        for row in slowest:
            attrs = row.get("attrs") or {}
            detail = " ".join(
                f"{key}={attrs[key]}" for key in sorted(attrs)
            )
            wall = row.get("wall_seconds")
            wall = float(wall) if isinstance(wall, (int, float)) else 0.0
            line = f"  {wall:>9.3f}s  {row.get('name')}"
            if detail:
                line += f"  {detail}"
            lines.append(line)

    metrics = report.get("metrics") or {}
    hits = _metric_value(metrics, "campaign.cache.hits")
    misses = _metric_value(metrics, "campaign.cache.misses")
    if hits or misses:
        rate = 100.0 * hits / (hits + misses)
        lines.append(
            f"Cache: {hits:g} hit(s), {misses:g} miss(es) "
            f"({rate:.0f}% hit rate)"
        )
    retries = _metric_value(metrics, "supervision.retries")
    giveups = _metric_value(metrics, "supervision.giveups")
    respawns = _metric_value(metrics, "supervision.respawns")
    if retries or giveups or respawns:
        lines.append(
            f"Supervision: {retries:g} retry(ies), {respawns:g} worker "
            f"respawn(s), {giveups:g} quarantine(s)"
        )

    events = report.get("events") or {}
    if events:
        lines.append(
            "Events: "
            + ", ".join(f"{name}={events[name]}" for name in sorted(events))
        )
    if metrics:
        lines.append("Metrics:")
        width = max(len(name) for name in metrics)
        for name in sorted(metrics):
            entry = metrics[name]
            kind = entry.get("kind")
            if kind == "histogram":
                count = entry.get("count", 0) or 0
                total = float(entry.get("total", 0.0) or 0.0)
                mean = total / count if count else 0.0
                lines.append(
                    f"  {name:<{width}}  count {count}  mean {mean:.6g}  "
                    f"max {entry.get('max', 0)}"
                )
            else:
                lines.append(
                    f"  {name:<{width}}  {entry.get('value', 0):g}"
                )

    scenarios = report.get("scenarios") or {}
    if scenarios:
        lines.append("Scenarios:")
        width = max(len(name) for name in scenarios)
        for name in sorted(scenarios):
            entry = scenarios[name]
            wall = entry.get("wall_seconds")
            wall = float(wall) if isinstance(wall, (int, float)) else 0.0
            line = f"  {name:<{width}}  wall {wall:.3f}s"
            moment = entry.get("last_activity")
            if isinstance(moment, (int, float)):
                stamp = time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(moment)
                )
                line += f"  last activity {stamp}"
            lines.append(line)
    return "\n".join(lines)


def chrome_trace(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Export the run as Chrome ``trace_event`` JSON (``ph: "X"``).

    Spans become complete events (microsecond ``ts``/``dur``), progress
    annotations become instant events, both loadable by
    ``chrome://tracing`` and Perfetto.
    """
    trace = read_trace(run_dir)
    trace_events: List[Dict[str, Any]] = []
    for record in trace["spans"]:
        trace_events.append(
            {
                "name": record.get("name"),
                "cat": "span",
                "ph": "X",
                "ts": float(record.get("start") or 0.0) * 1e6,
                "dur": float(record.get("wall") or 0.0) * 1e6,
                "pid": record.get("pid"),
                "tid": record.get("pid"),
                "args": {
                    "span": record.get("span"),
                    "parent": record.get("parent"),
                    **(record.get("attrs") or {}),
                },
            }
        )
    for record in trace["events"]:
        trace_events.append(
            {
                "name": record.get("name"),
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": float(record.get("time") or 0.0) * 1e6,
                "pid": record.get("pid"),
                "tid": record.get("pid"),
                "args": record.get("data") or {},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
