"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _check_attribution(outcome, tasks):
    per_layer = outcome.per_layer
    assert outcome.failed == 0, outcome.notes
    assert per_layer["attribution.busy_s"] > 0
    assert per_layer["attribution.coverage_error"] <= layers.ATTRIBUTION_TOLERANCE
    shares = [
        per_layer[f"attribution.{layer}_fraction"]
        for layer in layers.ATTRIBUTION_LAYERS + ("other",)
    ]
    assert abs(sum(shares) - 1.0) <= layers.ATTRIBUTION_TOLERANCE
    # Every value task ran in a forked pool or worker process; its spans
    # reached the report only because they were flushed per task.
    assert per_layer["scheduler.tasks"] == tasks


def test_grid_cold_spans_reach_the_report(tmp_path):
    spec = workloads.grid_spec(3, workloads.TINY)
    outcome = workloads.campaign_workload(
        "grid-cold", 3, 0.0, True, tmp_path, workloads.TINY
    )
    _check_attribution(outcome, workloads.value_tasks(spec))
    per_layer = outcome.per_layer
    assert per_layer["kernel.mst_batch_frames"] > 0
    assert per_layer["kernel.mst_single_calls"] > 0
    assert per_layer["runner.iterations"] > 0


def test_fanout_small_spans_reach_the_report(tmp_path):
    spec = workloads.fanout_spec(3, workloads.TINY)
    tasks = workloads.value_tasks(spec)
    outcome = workloads.campaign_workload(
        "fanout-small", 3, 0.0, True, tmp_path, workloads.TINY
    )
    _check_attribution(outcome, tasks)
    assert outcome.per_layer["distributed.leases"] == tasks
    assert outcome.per_layer["distributed.http_requests"] > 0


def test_query_zipf_checks_every_answer(tmp_path):
    outcome = workloads.query_workload(3, 0.0, True, tmp_path, workloads.TINY)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    assert 0 < outcome.per_layer["query.hot_hit_ratio"] <= 1
    assert outcome.per_layer["query.service_p50_ms"] > 0


def test_a_wrong_answer_counts_as_failed(tmp_path):
    document = workloads.query_spec(5, workloads.TINY)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(document))
    rows = workloads.populate_store(document, tmp_path / "store")
    good = list(itertools.islice(workloads.question_stream(5, rows), 6))
    wrong = workloads.Question(good[0].document, good[0].expected + 1.0, good[0].source)
    server = workloads.QueryServer(spec_path, tmp_path / "store", tmp_path, 4)
    try:
        batch = workloads.run_batch(server.address, good + [wrong])
    finally:
        assert server.stop() == 0
    assert batch.failed == 1
    assert len(batch.latencies) == len(good) + 1


def test_benchmark_json_lists_the_reported_metrics():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in document["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in document["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOADS)


def test_the_resource_tracker_is_stopped_and_reaped():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already waited for: nothing left


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
