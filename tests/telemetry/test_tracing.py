"""Unit tests for the telemetry tracer core (:mod:`repro.telemetry`).

Covers the single-process contracts the cross-process tests build on:
no-op behaviour while disarmed, span records and parentage, error
status, manual spans, context propagation through picklable shims,
event annotation, buffered flushing, run lifecycle (arm/disarm via the
environment), metric drain/merge, and graceful degradation when the
sink fails (via the ``telemetry.flush`` fault site).
"""

import json
import os
import pickle
import uuid
import warnings
from unittest import mock

import pytest

from repro import faults, telemetry
from repro.campaigns.progress import CacheHit
from repro.faults import FaultSpec
from repro.telemetry import metrics, report, tracing
from repro.telemetry.tracing import ENV_VAR, TRACE_FILE, _BUFFER_LIMIT


def read_records(run_dir):
    path = run_dir / TRACE_FILE
    if not path.is_file():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def spans_by_name(records):
    return {r["name"]: r for r in records if r["type"] == "span"}


@pytest.fixture
def disarmed(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture
def run(tmp_path, disarmed):
    """An armed telemetry run, disarmed (and sealed) on the way out."""
    handle = telemetry.start_run(tmp_path / "telemetry", campaign="unit")
    yield handle
    handle.finish()


def _traced_child():
    with telemetry.span("child"):
        return 42


class TestDisarmed:
    def test_everything_is_a_noop(self, disarmed, tmp_path):
        assert not telemetry.enabled()
        assert telemetry.current_context() is None
        with telemetry.span("work", foo=1) as opened:
            opened.set(bar=2)
            assert opened.context() is None
        manual = telemetry.begin_span("manual")
        manual.end()
        telemetry.annotate("tick", data=1)
        telemetry.flush()
        with telemetry.attach({"trace": "t", "span": "s"}):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_propagate_returns_fn_unchanged(self, disarmed):
        assert telemetry.propagate(_traced_child) is _traced_child


class TestSpans:
    def test_nested_spans_record_parentage(self, run):
        with telemetry.span("alpha", foo=1) as alpha:
            with telemetry.span("beta"):
                pass
        records = read_records(run.directory)
        named = spans_by_name(records)
        assert set(named) == {"alpha", "beta"}
        assert named["alpha"]["trace"] == run.trace_id
        assert named["alpha"]["parent"] is None
        assert named["beta"]["parent"] == alpha.context().span_id
        assert named["alpha"]["attrs"] == {"foo": 1}
        assert named["alpha"]["status"] == "ok"
        assert named["alpha"]["wall"] >= named["beta"]["wall"] >= 0.0
        assert named["alpha"]["pid"] == os.getpid()

    def test_exception_marks_span_error_and_still_flushes(self, run):
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("nope")
        named = spans_by_name(read_records(run.directory))
        assert named["boom"]["status"] == "error"
        assert telemetry.current_context() is None

    def test_begin_span_is_manual_and_stack_free(self, run):
        opened = telemetry.begin_span("manual", kind="scenario")
        assert telemetry.current_context() is None  # not ambient
        opened.set(extra=True)
        opened.end()
        opened.end()  # idempotent: one record only
        telemetry.flush()
        records = [r for r in read_records(run.directory) if r["type"] == "span"]
        assert len(records) == 1
        assert records[0]["attrs"] == {"kind": "scenario", "extra": True}

    def test_buffer_auto_flushes_at_limit(self, run):
        for _ in range(_BUFFER_LIMIT):
            telemetry.begin_span("tick").end()
        # No stack-empty or explicit flush happened, yet the buffer limit
        # already pushed a full batch to disk.
        assert len(read_records(run.directory)) >= _BUFFER_LIMIT

    def test_propagate_shim_pickles_and_reparents(self, run):
        with telemetry.span("parent") as parent:
            shim = telemetry.propagate(_traced_child)
        assert shim is not _traced_child
        clone = pickle.loads(pickle.dumps(shim))
        assert clone() == 42
        telemetry.flush()
        named = spans_by_name(read_records(run.directory))
        assert named["child"]["parent"] == parent.context().span_id
        assert named["child"]["trace"] == run.trace_id

    def test_propagate_without_context_returns_fn(self, run):
        assert telemetry.propagate(_traced_child) is _traced_child


class TestAnnotations:
    def test_annotated_forwards_the_identical_event(self, run):
        seen = []
        wrapped = telemetry.annotated(seen.append)
        event = CacheHit(scenario_id="scn", key="abcdef0123456789")
        wrapped(event)
        assert len(seen) == 1 and seen[0] is event
        telemetry.flush()
        events = [r for r in read_records(run.directory) if r["type"] == "event"]
        assert len(events) == 1
        assert events[0]["name"] == "CacheHit"
        assert events[0]["data"] == {
            "scenario_id": "scn",
            "key": "abcdef0123456789",
        }

    def test_annotate_attaches_to_ambient_span(self, run):
        with telemetry.span("outer") as outer:
            telemetry.annotate("milestone", step=3)
        records = read_records(run.directory)
        (event,) = [r for r in records if r["type"] == "event"]
        assert event["span"] == outer.context().span_id
        assert event["trace"] == run.trace_id


class TestRunLifecycle:
    def test_start_run_arms_and_finish_disarms(self, tmp_path, disarmed):
        handle = telemetry.start_run(tmp_path / "telemetry", campaign="demo")
        assert telemetry.enabled()
        assert os.environ[ENV_VAR] == str(handle.directory)
        manifest = json.loads(
            (handle.directory / "run.json").read_text(encoding="utf-8")
        )
        assert manifest["campaign"] == "demo"
        assert manifest["trace_id"] == handle.trace_id
        with telemetry.span("only"):
            pass
        report_path = handle.finish()
        assert not telemetry.enabled()
        assert ENV_VAR not in os.environ
        built = json.loads(report_path.read_text(encoding="utf-8"))
        assert built["run_id"] == handle.run_id
        assert built["spans"]["count"] == 1
        assert handle.finish() is None  # sealing is once-only

    def test_finish_restores_previous_env(self, tmp_path, disarmed):
        os.environ[ENV_VAR] = "/somewhere/else"
        try:
            handle = telemetry.start_run(tmp_path / "telemetry")
            handle.finish()
            assert os.environ[ENV_VAR] == "/somewhere/else"
        finally:
            os.environ.pop(ENV_VAR, None)

    def test_run_ids_sort_chronologically(self, tmp_path, disarmed):
        first = telemetry.start_run(tmp_path / "telemetry")
        first.finish()
        second = telemetry.start_run(tmp_path / "telemetry")
        second.finish()
        runs = report.list_runs(tmp_path / "telemetry")
        assert [r.name for r in runs] == sorted(r.name for r in runs)
        assert report.latest_run_dir(tmp_path / "telemetry") == runs[-1]

    def test_runs_started_in_one_second_sort_by_start_time(self, tmp_path, disarmed):
        """Two runs 1 ms apart within one UTC second, the later one with
        the smaller random suffix: the later run still sorts last."""
        second = 1_800_000_000 * 10**9
        # start_run draws the run id's suffix, then the trace id.
        draws = iter(uuid.UUID(int=value) for value in (2**128 - 1, 1, 0, 2))
        started = []
        with mock.patch.object(tracing.uuid, "uuid4", lambda: next(draws)):
            for offset in (100_000, 1_100_000):
                with mock.patch.object(tracing.time, "time_ns", lambda: second + offset):
                    handle = telemetry.start_run(tmp_path / "telemetry")
                handle.finish()
                started.append(handle)
        first, later = started
        assert first.run_id[:15] == later.run_id[:15]  # the same second
        assert first.run_id[-8:] > later.run_id[-8:]
        assert first.started < later.started
        assert report.latest_run_dir(tmp_path / "telemetry") == later.directory
        assert [r.name for r in report.list_runs(tmp_path / "telemetry")] == [
            first.run_id, later.run_id,
        ]


class TestMetrics:
    def test_instruments_drain_and_reset(self, disarmed):
        metrics.drain()  # clean slate
        metrics.counter("hits").add()
        metrics.counter("hits").add(2.0)
        metrics.histogram("lat").observe(0.5)
        metrics.histogram("lat").observe(1.5)
        snapshot = metrics.drain()
        assert snapshot["hits"] == {"kind": "counter", "value": 3.0}
        assert snapshot["lat"] == {
            "kind": "histogram",
            "count": 2,
            "total": 2.0,
            "min": 0.5,
            "max": 1.5,
        }
        assert metrics.drain() == {}  # drained registry is empty

    def test_merge_combines_process_snapshots(self):
        merged = metrics.merge(
            [
                {
                    "hits": {"kind": "counter", "value": 2.0},
                    "lat": {
                        "kind": "histogram",
                        "count": 1,
                        "total": 1.0,
                        "min": 1.0,
                        "max": 1.0,
                    },
                },
                {
                    "hits": {"kind": "counter", "value": 3.0},
                    "lat": {
                        "kind": "histogram",
                        "count": 2,
                        "total": 5.0,
                        "min": 0.5,
                        "max": 4.5,
                    },
                },
            ]
        )
        assert merged["hits"]["value"] == 5.0
        assert merged["lat"] == {
            "kind": "histogram",
            "count": 3,
            "total": 6.0,
            "min": 0.5,
            "max": 4.5,
        }

    def test_flush_writes_metric_deltas(self, run):
        metrics.counter("unit.widgets").add(4.0)
        telemetry.flush()
        records = [
            r for r in read_records(run.directory) if r["type"] == "metrics"
        ]
        assert records and records[-1]["metrics"]["unit.widgets"] == {
            "kind": "counter",
            "value": 4.0,
        }


class TestDegradation:
    def test_failing_sink_degrades_once_and_never_raises(
        self, tmp_path, disarmed
    ):
        handle = telemetry.start_run(tmp_path / "telemetry", campaign="chaos")
        specs = [FaultSpec(site="telemetry.flush", action="io-error", count=0)]
        try:
            with faults.active(specs, tmp_path / "faultstate"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with telemetry.span("doomed"):
                        pass  # stack empties -> flush -> injected EIO
                    with telemetry.span("dropped"):
                        pass
                    telemetry.flush()
                degraded = [
                    w
                    for w in caught
                    if issubclass(w.category, telemetry.TelemetryDegradedWarning)
                ]
                assert len(degraded) == 1  # one warning, not one per flush
                assert read_records(handle.directory) == []
        finally:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                handle.finish()

    def test_degraded_run_still_seals_a_report(self, tmp_path, disarmed):
        handle = telemetry.start_run(tmp_path / "telemetry")
        specs = [FaultSpec(site="telemetry.flush", action="io-error", count=0)]
        with faults.active(specs, tmp_path / "faultstate"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with telemetry.span("gone"):
                    pass
        report_path = handle.finish()
        built = json.loads(report_path.read_text(encoding="utf-8"))
        assert built["spans"]["count"] == 0
