"""Per-layer metrics derived from the traced repetitions of a run.

Layers are named after the program's modules.  Every time is the layer's
*self* time (its spans minus the nested traced calls they made), and every
time and count is per repetition: one cold campaign, or one batch of
questions.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from tracer import merge

#: The attribution rows must sum to worker busy time within this share.
ATTRIBUTION_TOLERANCE = 0.02

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("mobility.trajectory_s", "s", "lower"),
    ("mobility.frames", "count", "higher"),
    ("kernel.mst_batch_s", "s", "lower"),
    ("kernel.mst_batch_frames", "count", "higher"),
    ("kernel.mst_batch_us_per_frame", "us", "lower"),
    ("kernel.mst_single_s", "s", "lower"),
    ("kernel.mst_single_calls", "count", "higher"),
    ("kernel.computed_bytes", "bytes", "lower"),
    ("engine.sweep_s", "s", "lower"),
    ("engine.breakpoints", "count", "higher"),
    ("runner.collect_s", "s", "lower"),
    ("runner.stationary_s", "s", "lower"),
    ("runner.handoff_s", "s", "lower"),
    ("runner.iterations", "count", "higher"),
    ("metrics.thresholds_s", "s", "lower"),
    ("scheduler.tasks", "count", "higher"),
    ("scheduler.retries", "count", "lower"),
    ("scheduler.respawns", "count", "lower"),
    ("scheduler.first_task_delay_s", "s", "lower"),
    ("scheduler.worker_idle_fraction", "ratio", "lower"),
    ("store.put_calls", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.put_bytes", "bytes", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.get_bytes", "bytes", "lower"),
    ("store.encode_s", "s", "lower"),
    ("store.decode_s", "s", "lower"),
    ("store.key_s", "s", "lower"),
    ("store.bytes_on_disk", "bytes", "lower"),
    ("distributed.polls", "count", "lower"),
    ("distributed.leases", "count", "lower"),
    ("distributed.lease_ratio", "ratio", "higher"),
    ("distributed.lease_expiries", "count", "lower"),
    ("distributed.http_requests", "count", "lower"),
    ("distributed.wire_bytes", "bytes", "lower"),
    ("distributed.task_overhead_p50_ms", "ms", "lower"),
    ("distributed.worker_busy_fraction", "ratio", "higher"),
    ("query.service_p50_ms", "ms", "lower"),
    ("query.service_p99_ms", "ms", "lower"),
    ("query.http_overhead_p50_ms", "ms", "lower"),
    ("query.hot_hit_ratio", "ratio", "higher"),
    ("query.cold_misses", "count", "lower"),
    ("query.cold_p50_ms", "ms", "lower"),
    ("query.fit_s", "s", "lower"),
    ("query.resolve_s", "s", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
    ("host.calibration_s", "s", "lower"),
    ("attribution.busy_s", "s", "lower"),
    ("attribution.coverage_error", "ratio", "lower"),
    ("attribution.mobility_fraction", "ratio", "lower"),
    ("attribution.kernel_fraction", "ratio", "lower"),
    ("attribution.engine_fraction", "ratio", "lower"),
    ("attribution.runner_fraction", "ratio", "lower"),
    ("attribution.metrics_fraction", "ratio", "lower"),
    ("attribution.store_fraction", "ratio", "lower"),
    ("attribution.distributed_fraction", "ratio", "lower"),
    ("attribution.other_fraction", "ratio", "lower"),
)

#: Attribution rows; spans of no named layer (the task glue) land in ``other``.
ATTRIBUTION_LAYERS = (
    "mobility", "kernel", "engine", "runner", "metrics", "store", "distributed",
)
_GLUE = {"runner.task", "distributed.worker"}


def _empty() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` by rank (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def _store_layers(out: Dict[str, float], merged: Dict[str, Any], per: float) -> None:
    spans, counts = merged["spans"], merged["counts"]
    for name in ("put_calls", "put_bytes", "get_calls", "get_bytes"):
        out[f"store.{name}"] = counts[f"store.{name}"] / per
    for name in ("put", "get", "encode", "decode", "key"):
        out[f"store.{name}_s"] = spans[f"store.{name}"][2] / per


def campaign_layers(reps: List[Any], tasks: int, width: int, distributed: bool,
                    trace_overhead: float) -> Dict[str, float]:
    """Layer metrics of the traced cold campaigns, plus the coverage check.

    The returned ``attribution.ok`` entry (not a metric) is ``True`` when
    the rooted self times of every layer plus ``other`` sum to the worker
    busy time within :data:`ATTRIBUTION_TOLERANCE`, and every value task
    reached the report from its worker process.
    """
    per = float(len(reps))
    merged = merge(record for rep in reps for record in rep.trace)
    each = [merge(rep.trace) for rep in reps]
    spans, counts, samples = merged["spans"], merged["counts"], merged["samples"]
    out = _empty()

    out["mobility.trajectory_s"] = spans["mobility.trajectory"][2] / per
    out["mobility.frames"] = counts["mobility.frames"] / per
    batch_frames = counts["kernel.mst_batch_frames"]
    out["kernel.mst_batch_s"] = spans["kernel.mst_batch"][2] / per
    out["kernel.mst_batch_frames"] = batch_frames / per
    if batch_frames:
        out["kernel.mst_batch_us_per_frame"] = 1e6 * spans["kernel.mst_batch"][2] / batch_frames
    out["kernel.mst_single_s"] = spans["kernel.mst_single"][2] / per
    out["kernel.mst_single_calls"] = counts["kernel.mst_single_calls"] / per
    out["kernel.computed_bytes"] = counts["kernel.computed_bytes"] / per
    out["engine.sweep_s"] = spans["engine.sweep"][2] / per
    out["engine.breakpoints"] = counts["engine.breakpoints"] / per
    out["runner.collect_s"] = spans["runner.collect"][2] / per
    out["runner.stationary_s"] = spans["runner.stationary"][2] / per
    out["runner.handoff_s"] = spans["runner.handoff"][2] / per
    out["runner.iterations"] = counts["runner.iterations"] / per
    out["metrics.thresholds_s"] = spans["metrics.thresholds"][2] / per

    walls = sum(rep.wall for rep in reps)
    task_busy = sum(samples["scheduler.task_s"])
    out["scheduler.tasks"] = counts["scheduler.tasks"] / per
    out["scheduler.retries"] = sum(rep.retries for rep in reps) / per
    out["scheduler.respawns"] = counts["scheduler.respawns"] / per
    delays = [
        min(one["samples"]["scheduler.task_start"]) - rep.start
        for one, rep in zip(each, reps)
        if one["samples"]["scheduler.task_start"]
    ]
    out["scheduler.first_task_delay_s"] = statistics.median(delays) if delays else 0.0
    out["scheduler.worker_idle_fraction"] = 1.0 - task_busy / (width * walls)
    _store_layers(out, merged, per)
    out["store.bytes_on_disk"] = sum(rep.bytes_on_disk for rep in reps) / per

    if distributed:
        polls = counts["distributed.polls"]
        out["distributed.polls"] = polls / per
        out["distributed.leases"] = counts["distributed.leases"] / per
        out["distributed.lease_ratio"] = counts["distributed.leases"] / polls if polls else 0.0
        out["distributed.lease_expiries"] = counts["distributed.lease_expiries"] / per
        out["distributed.http_requests"] = counts["distributed.http_requests"] / per
        out["distributed.wire_bytes"] = counts["distributed.wire_bytes"] / per
        out["distributed.task_overhead_p50_ms"] = 1000.0 * percentile(
            samples["distributed.task_overhead_s"], 0.5
        )
        out["distributed.worker_busy_fraction"] = task_busy / (width * walls)

    out["trace.overhead_fraction"] = trace_overhead
    rows = defaultdict(float)
    for name, record in merged["worker_spans"].items():
        layer = name.split(".", 1)[0]
        if name in _GLUE or layer not in ATTRIBUTION_LAYERS:
            layer = "other"
        rows[layer] += record[3]
    busy = merged["busy"]
    out["attribution.busy_s"] = busy / per
    if busy > 0:
        out["attribution.coverage_error"] = abs(sum(rows.values()) - busy) / busy
        for layer in ATTRIBUTION_LAYERS + ("other",):
            out[f"attribution.{layer}_fraction"] = rows[layer] / busy
    every_task_reported = all(one["counts"]["scheduler.tasks"] == tasks for one in each)
    out["attribution.ok"] = bool(
        busy > 0
        and out["attribution.coverage_error"] <= ATTRIBUTION_TOLERANCE
        and every_task_reported
    )
    return out


def query_layers(records: List[Dict[str, Any]], batches: List[Any], served: int,
                 bytes_on_disk: int, trace_overhead: float) -> Dict[str, float]:
    """Layer metrics of the traced query server, per batch it served.

    The service has no worker processes, so the attribution rows stay 0.
    """
    per = float(max(1, served))
    merged = merge(records)
    spans, samples = merged["spans"], merged["samples"]
    out = _empty()
    _store_layers(out, merged, per)
    out["store.bytes_on_disk"] = float(bytes_on_disk)
    service = samples["query.service_s"]
    client = [sample for batch in batches for sample in batch.latencies]
    asked = sum(len(batch.latencies) for batch in batches)
    out["query.service_p50_ms"] = 1000.0 * percentile(service, 0.50)
    out["query.service_p99_ms"] = 1000.0 * percentile(service, 0.99)
    out["query.http_overhead_p50_ms"] = 1000.0 * (
        percentile(client, 0.50) - percentile(service, 0.50)
    )
    out["query.hot_hit_ratio"] = sum(batch.hot for batch in batches) / asked if asked else 0.0
    out["query.cold_misses"] = len(samples["query.cold_s"]) / per
    out["query.cold_p50_ms"] = 1000.0 * percentile(samples["query.cold_s"], 0.50)
    out["query.fit_s"] = spans["query.fit"][2] / per
    out["query.resolve_s"] = spans["query.resolve"][2] / per
    out["trace.overhead_fraction"] = trace_overhead
    return out
