"""``repro query serve`` as a process, asked by ``repro query ask``.

The server runs as ``python -m repro query serve`` on a warm store and
announces its URL through ``--url-file``; the questions go through the
CLI's ``query ask`` exactly as a shell user would send them.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaigns import CampaignSpec
from repro.cli import main
from repro.query import GridIndex
from repro.store import ResultStore

SPEC = """
name = "query-cli"
experiments = ["fig2"]
scale = "smoke"
"""

#: Synthetic rows of the fig2 waypoint cell at both smoke-grid sides.
ROWS = {
    256.0: {
        "l": 256.0, "n": 16.0, "rstationary": 2.0,
        "r0": 1.0, "r10": 1.5, "r90": 3.0, "r100": 4.0,
    },
    1024.0: {
        "l": 1024.0, "n": 32.0, "rstationary": 3.0,
        "r0": 2.0, "r10": 2.5, "r90": 5.0, "r100": 6.0,
    },
}

#: Seconds a server has to announce its URL, and to exit after SIGTERM.
STARTUP_SECONDS = 60.0
SHUTDOWN_SECONDS = 30.0


def start_server(root: Path):
    """Start ``query serve`` over a warm store; ``(process, url, store)``."""
    spec_path = root / "spec.toml"
    spec_path.write_text(SPEC)
    store = ResultStore(root / "store")
    grid = GridIndex(CampaignSpec.load(spec_path))
    checkpoint = grid.checkpoint_for(grid.scenario_for("waypoint"), store=store)
    for side, row in ROWS.items():
        checkpoint.save(side, row)
    url_file = root / "url"
    source = str(Path(repro.__file__).resolve().parents[1])
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [source] + [p for p in [environment.get("PYTHONPATH")] if p]
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "query", "serve", str(spec_path),
            "--store", str(store.root), "--port", "0", "--fill-port", "0",
            "--url-file", str(url_file),
        ],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_SECONDS
    while not url_file.is_file() or not url_file.read_text().strip():
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            output, _ = process.communicate()
            pytest.fail(f"query serve did not announce its URL:\n{output}")
        time.sleep(0.05)
    return process, url_file.read_text().strip(), store


def stop(process):
    if process.poll() is None:
        process.kill()
    process.communicate()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    process, url, _ = start_server(tmp_path_factory.mktemp("serve"))
    yield url
    stop(process)


def ask(url, *arguments):
    return main(["query", "ask", "--url", url, *arguments])


class TestQueryAsk:
    def test_exact_in_grid_answer_as_a_sentence(self, served, capsys):
        assert ask(served, "--side", "256", "--probability", "0.9") == 0
        output = capsys.readouterr().out
        assert "critical range = 3 " in output
        assert "side 256, n 16, source exact" in output
        assert "refine=true" not in output

    def test_exact_in_grid_answer_as_json(self, served, capsys):
        assert ask(served, "--nodes", "16", "--range", "3", "--json") == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["unit"] == "probability"
        assert answer["source"] == "exact"
        assert answer["side"] == 256.0
        assert answer["refine"] is False

    def test_a_rejected_query_exits_1_with_the_servers_message(self, served, capsys):
        assert ask(served, "--side", "256", "--probability", "1.5") == 1
        error = capsys.readouterr().err
        assert "Query rejected (400)" in error
        assert "probability must be in [0, 1], got 1.5" in error

    def test_an_unreachable_url_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        assert ask(url, "--side", "256", "--probability", "0.9", "--timeout", "5") == 1
        assert f"Query service {url} unreachable" in capsys.readouterr().err


def test_sigterm_exits_0_and_seals_the_run_report(tmp_path, capsys):
    process, url, store = start_server(tmp_path)
    try:
        assert ask(url, "--side", "256", "--probability", "0.9") == 0
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=SHUTDOWN_SECONDS)
    finally:
        stop(process)
    assert process.returncode == 0, output
    (report_path,) = (store.root / "telemetry").glob("*/run_report.json")
    metrics = json.loads(report_path.read_text())["metrics"]
    assert metrics["query.requests"]["value"] == 1.0
    assert metrics["query.http.ask_seconds"]["count"] == 1
