"""The benchmark's three workloads, run through the program's entry points.

* ``grid-cold``: ``CampaignRunner(spec, fresh_store, total_workers=2).run()``
  over the fig2 + fig3 system-size sweeps, as ``campaign run`` does;
* ``fanout-small``: ``serve_campaign`` in this process drained by two
  forked ``run_worker`` processes over the fig7 + fig8 + fig9 parameter
  studies, as ``campaign serve`` + ``campaign work`` do;
* ``query-zipf``: ``query serve`` in a child process, loaded by two
  closed-loop client connections on ``POST /ask``.

Each workload builds its inputs from the seed alone, repeats its unit of
work (one cold campaign, or one batch of queries) until the time is up,
checks every output, and returns a :class:`Outcome`.  In a traced run the
repetitions alternate between untraced and traced, so the per-layer
numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import layers
import tracer as tracing

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
HERE = Path(__file__).resolve().parent

#: Workers, pool width or client connections: the host has two cores.
WIDTH = 2
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Repetitions every run makes, however short ``--seconds`` is.
MIN_REPETITIONS = 4

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads (``TINY`` serves the tests)."""

    grid_steps: int = 1000
    grid_iterations: int = 4
    fanout_steps: int = 20
    fanout_iterations: int = 2
    fanout_stationary: int = 4
    fanout_points: int = 11
    fanout_seeds: int = 3
    query_sides: int = 64
    query_batch: int = 800
    query_cache_cells: int = 16

    @property
    def grid_stationary(self) -> int:
        # The paper draws 1 000 placements per 50 x 10 000 mobile frames.
        return max(1, self.grid_steps * self.grid_iterations // 500)


FULL = Sizes()
TINY = Sizes(
    grid_steps=40,
    grid_iterations=2,
    fanout_steps=5,
    fanout_iterations=1,
    fanout_stationary=2,
    fanout_points=3,
    fanout_seeds=1,
    query_sides=8,
    query_batch=40,
    query_cache_cells=4,
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def interpreter_start(modules: str) -> float:
    """Seconds a fresh interpreter takes to import the entry modules."""
    started = clock()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        env=program_env(),
        check=True,
    )
    return clock() - started


def directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def repeat(seconds: float, body: Callable[[int], Any]) -> List[Any]:
    """Call ``body(index)`` until ``seconds`` passed (at least a few times)."""
    deadline = clock() + seconds
    results: List[Any] = []
    while len(results) < MIN_REPETITIONS or clock() < deadline:
        results.append(body(len(results)))
    return results


def overhead(untraced: List[float], traced: List[float]) -> float:
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base


def rows_digest(result) -> Tuple[str, Dict[str, List[Dict[str, float]]]]:
    """Every completed sweep's rows, and a sha256 over their exact floats."""
    rows = {
        scenario: [dict(row) for row in sweep.rows]
        for scenario, sweep in sorted(result.sweeps.items())
    }
    encoded = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest(), rows


def differing_rows(reference: Dict[str, list], rows: Dict[str, list]) -> int:
    """Rows of ``rows`` that are missing from or differ with ``reference``."""
    differing = 0
    for scenario, expected in reference.items():
        got = rows.get(scenario, [])
        differing += sum(1 for index, row in enumerate(expected)
                         if index >= len(got) or got[index] != row)
    return differing


# ---------------------------------------------------------------------- #
# Campaign workloads
# ---------------------------------------------------------------------- #
@dataclass
class CampaignRep:
    """One cold campaign: its wall, row arrival times and checks."""

    wall: float
    arrivals: List[float]
    computed: int
    quarantined: int
    retries: int
    digest: str
    rows: Dict[str, list]
    start: float = 0.0
    bad_workers: int = 0
    trace: Optional[List[Dict[str, Any]]] = None
    bytes_on_disk: int = 0


class _Progress:
    """Progress sink timing each finished value task from campaign start."""

    def __init__(self) -> None:
        from repro.campaigns.progress import TaskCompleted, TaskRetried

        self._completed = TaskCompleted
        self._retried = TaskRetried
        self.start = clock()
        self.arrivals: List[float] = []
        self.retries = 0

    def __call__(self, event: Any) -> None:
        if isinstance(event, self._completed):
            self.arrivals.append(clock() - self.start)
        elif isinstance(event, self._retried):
            self.retries += 1


def grid_spec(seed: int, sizes: Sizes):
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="perfbench-grid",
        experiments=("fig2", "fig3"),
        scale="default",
        overrides=(
            ("steps", sizes.grid_steps),
            ("iterations", sizes.grid_iterations),
            ("stationary_iterations", sizes.grid_stationary),
            ("seed", seed),
        ),
    )


def fanout_spec(seed: int, sizes: Sizes):
    from repro.campaigns import CampaignSpec

    return CampaignSpec(
        name="perfbench-fanout",
        experiments=("fig7", "fig8", "fig9"),
        scale="smoke",
        overrides=(
            ("steps", sizes.fanout_steps),
            ("iterations", sizes.fanout_iterations),
            ("stationary_iterations", sizes.fanout_stationary),
            ("parameter_points", sizes.fanout_points),
        ),
        matrix=(("seed", tuple(seed + i for i in range(sizes.fanout_seeds))),),
    )


def value_tasks(spec) -> int:
    from repro.experiments.registry import get_experiment

    return sum(
        len(get_experiment(s.experiment_id).sweep_values(s.scale))
        for s in spec.scenarios()
    )


def frames_per_campaign(spec) -> int:
    """Mobile frames plus stationary placements one cold campaign reduces."""
    from repro.experiments.registry import get_experiment

    total = 0
    for scenario in spec.scenarios():
        scale = scenario.scale
        values = len(get_experiment(scenario.experiment_id).sweep_values(scale))
        total += values * (scale.steps * scale.iterations + scale.stationary_iterations)
    return total


def _run_grid(spec, store_root: Path, progress: _Progress):
    from repro.campaigns import CampaignRunner
    from repro.store import ResultStore

    return CampaignRunner(
        spec, ResultStore(store_root), total_workers=WIDTH
    ).run(progress=progress)


def _worker_main(receiver, tracer: Optional[tracing.Tracer]) -> None:
    """Body of one forked ``campaign work`` process."""
    from repro.distributed.worker import run_worker

    url = receiver.recv()
    receiver.close()
    if url is None:
        return
    drain = run_worker
    if tracer is not None:
        drain = tracer.wrap(run_worker, name="distributed.worker", root=True)
    drain(url)


class WorkerGroup:
    """``WIDTH`` workers forked *before* the server binds its socket.

    They are forked, not spawned, so they inherit the tracer's wrappers,
    and forked before the server starts its threads.  Forking after the
    bind would also hand every worker a copy of the listening socket,
    and a worker polling as the server stops would then wait on a
    connection nobody accepts.
    """

    def __init__(self, tracer: Optional[tracing.Tracer] = None) -> None:
        context = multiprocessing.get_context("fork")
        self.processes = []
        self.senders = []
        for _ in range(WIDTH):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_worker_main, args=(receiver, tracer))
            process.start()
            receiver.close()
            self.processes.append(process)
            self.senders.append(sender)

    def release(self, url: Optional[str]) -> None:
        for sender in self.senders:
            sender.send(url)
            sender.close()
        self.senders = []

    def join(self, timeout: float = 30.0) -> int:
        """Wait for every worker; returns how many did not exit cleanly."""
        if self.senders:
            self.release(None)
        deadline = clock() + timeout
        bad = 0
        for process in self.processes:
            process.join(max(0.0, deadline - clock()))
            if process.is_alive():
                process.terminate()
                process.join()
            if process.exitcode != 0:
                bad += 1
        return bad


def _release_when_sealed(workers: WorkerGroup, url: str) -> threading.Thread:
    """Hand ``url`` to the workers once the campaign has enqueued its tasks.

    A worker polling an unsealed queue is told to come back in 0.5 s, so
    attaching earlier would add 0 or 0.5 s to the wall at random.
    """
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def wait_and_release() -> None:
        while True:
            with opener.open(f"{url}/queue/stats", timeout=30) as response:
                if json.loads(response.read()).get("sealed"):
                    break
            time.sleep(0.002)
        workers.release(url)

    thread = threading.Thread(target=wait_and_release, daemon=True)
    thread.start()
    return thread


def _run_fanout(spec, store_root: Path, progress: _Progress,
                tracer: Optional[tracing.Tracer]) -> Tuple[Any, int]:
    from repro.distributed.campaign import serve_campaign
    from repro.store import ResultStore

    workers = WorkerGroup(tracer)
    releasing: List[threading.Thread] = []
    try:
        result = serve_campaign(
            spec, ResultStore(store_root), progress=progress,
            on_ready=lambda url: releasing.append(_release_when_sealed(workers, url)),
        )
    finally:
        for thread in releasing:
            thread.join(timeout=30)
        bad = workers.join()
    return result, bad


def _fanout_startup(work: Path) -> float:
    """Server bind plus two workers reaching a drained queue."""
    from repro.distributed.queue import WorkQueue
    from repro.distributed.server import ResultServer
    from repro.store import ResultStore
    from repro.supervision import RetryPolicy

    started = clock()
    workers = WorkerGroup()
    queue = WorkQueue(RetryPolicy())
    queue.seal()
    server = ResultServer(ResultStore(work / "startup-store"), queue).start()
    try:
        workers.release(server.url)
        workers.join()
    finally:
        server.stop()
    elapsed = clock() - started
    shutil.rmtree(work / "startup-store", ignore_errors=True)
    return elapsed


def campaign_workload(
    name: str, seed: int, seconds: float, trace: bool, work: Path, sizes: Sizes = FULL
) -> Outcome:
    distributed = name == "fanout-small"
    spec = fanout_spec(seed, sizes) if distributed else grid_spec(seed, sizes)
    tasks = value_tasks(spec)
    frames = frames_per_campaign(spec)

    setups: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        if distributed:
            setups.append(
                interpreter_start("repro.cli, repro.distributed, repro.experiments")
                + _fanout_startup(work)
            )
        else:
            setups.append(
                interpreter_start("repro.cli, repro.campaigns, repro.experiments")
            )

    def body(index: int) -> CampaignRep:
        traced = trace and index % 2 == 1
        store_root = work / f"store-{index}"
        active = tracing.install(work / f"trace-{index}") if traced else None
        progress = _Progress()
        try:
            if distributed:
                result, bad_workers = _run_fanout(spec, store_root, progress, active)
            else:
                result, bad_workers = _run_grid(spec, store_root, progress), 0
            wall = clock() - progress.start
            if active is not None:
                active.flush()
        finally:
            if active is not None:
                active.uninstall()
        digest, rows = rows_digest(result)
        rep = CampaignRep(
            wall=wall,
            arrivals=progress.arrivals,
            computed=result.computed_values,
            quarantined=result.quarantined_tasks,
            retries=progress.retries,
            digest=digest,
            rows=rows,
            start=progress.start,
            bad_workers=bad_workers,
        )
        if traced:
            rep.trace = tracing.read(work / f"trace-{index}")
            rep.bytes_on_disk = directory_bytes(store_root)
            shutil.rmtree(work / f"trace-{index}", ignore_errors=True)
        shutil.rmtree(store_root, ignore_errors=True)
        return rep

    reps = repeat(seconds, body)
    reference = reps[0].rows
    failed = 0
    for rep in reps:
        failed += max(0, tasks - rep.computed) + rep.quarantined + rep.bad_workers
        failed += differing_rows(reference, rep.rows)
    attempted = tasks * len(reps)

    timed = [rep for rep in reps if rep.trace is None]
    walls = [rep.wall for rep in timed]
    arrivals = sum(len(rep.arrivals) for rep in timed)
    throughput = [(tasks if distributed else frames) / rep.wall for rep in timed]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(throughput),
        "latency_p50_ms": 1000.0 * statistics.median(
            layers.percentile(rep.arrivals, 0.50) for rep in timed
        ),
        "latency_p99_ms": 1000.0 * statistics.median(
            layers.percentile(rep.arrivals, 0.99) for rep in timed
        ),
    }
    unit = "tasks_per_s" if distributed else "frames_per_s"
    notes = [
        f"{len(reps)} cold campaigns ({len(timed)} untraced), {tasks} value "
        f"tasks and {frames} frames each; rows sha256 {reps[0].digest}",
        f"{unit} = throughput_per_s; latency = campaign start -> value row "
        f"landed, {arrivals} samples (percentiles per campaign, median "
        f"over campaigns)",
    ]
    per_layer: Dict[str, float] = {}
    if trace:
        traced_reps = [rep for rep in reps if rep.trace is not None]
        per_layer = layers.campaign_layers(
            traced_reps, tasks, WIDTH, distributed,
            overhead([rep.wall for rep in timed], [rep.wall for rep in traced_reps]),
        )
        if not per_layer.pop("attribution.ok"):
            failed += 1
            notes.append("attribution coverage check FAILED")
    return Outcome(end_to_end, per_layer, attempted, failed, notes)


# ---------------------------------------------------------------------- #
# query-zipf
# ---------------------------------------------------------------------- #
QUERY_SPEC_NAME = "perfbench-query"
_ABORT = struct.pack("ii", 1, 0)
#: TIME_WAIT sockets on the host above which query-zipf waits before set-up.
QUIET_TIME_WAIT = 200
#: How long Linux keeps a closed TCP connection in TIME_WAIT.
TIME_WAIT_SECONDS = 60.0


def time_wait_sockets() -> int:
    """TCP sockets in TIME_WAIT on this host (0 where ``/proc`` is absent)."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as lines:
                next(lines, None)
                count += sum(1 for line in lines if line.split()[3] == "06")
        except OSError:
            pass
    return count


def wait_for_quiet_loopback() -> float:
    """Wait until connections closed by earlier runs have left TIME_WAIT.

    A fanout-small run leaves a few thousand of them behind (the result
    server and its clients close every connection).  For the minute they
    last, query-zipf runs are about 30% slower and their p99 up to 60%
    higher, so a query run right after a fanout run would measure its
    predecessor.  Returns the seconds waited.
    """
    started = clock()
    deadline = started + TIME_WAIT_SECONDS + 5.0
    while time_wait_sockets() > QUIET_TIME_WAIT and clock() < deadline:
        time.sleep(0.5)
    return clock() - started


def query_sides(sizes: Sizes) -> Tuple[float, ...]:
    return tuple(float(256 + 32 * index) for index in range(sizes.query_sides))


def query_spec(seed: int, sizes: Sizes) -> Dict[str, Any]:
    return {
        "name": QUERY_SPEC_NAME,
        "experiments": ["fig2"],
        "scale": "smoke",
        "overrides": {
            "sides": list(query_sides(sizes)),
            "steps": 8,
            "iterations": 1,
            "stationary_iterations": 4,
            "seed": seed,
        },
    }


def populate_store(document: Dict[str, Any], root: Path) -> Dict[float, Dict[str, float]]:
    """Measure and store one real system-size row per grid side."""
    from repro.campaigns import CampaignSpec
    from repro.experiments.registry import get_experiment
    from repro.query import GridIndex
    from repro.simulation.sweep import measure_row
    from repro.store import ResultStore

    spec = CampaignSpec.from_dict(document)
    grid = GridIndex(spec)
    scenario = grid.scenario_for("waypoint")
    experiment = get_experiment(scenario.experiment_id)
    measure = experiment.sweep_measure(scenario.scale)
    checkpoint = grid.checkpoint_for(scenario, store=ResultStore(root))
    rows = {}
    for side in experiment.sweep_values(scenario.scale):
        row = measure_row(experiment.parameter_name, measure, float(side))
        checkpoint.save(float(side), row)
        rows[float(side)] = row
    return rows


class QueryServer:
    """``query serve`` in a child interpreter, optionally traced."""

    def __init__(self, spec_path: Path, store: Path, work: Path, cache_cells: int,
                 trace_dir: Optional[Path] = None) -> None:
        own = Path(tempfile.mkdtemp(prefix="server-", dir=work))
        self.url_file = own / "url"
        command = [
            sys.executable, str(HERE / "query_server.py"),
            str(spec_path), "--store", str(store),
            "--url-file", str(self.url_file),
            "--cache-cells", str(cache_cells),
        ]
        if trace_dir is not None:
            command[2:2] = ["--trace-dir", str(trace_dir)]
        self.log = open(own / "log", "wb")
        self.process = subprocess.Popen(
            command, env=program_env(), stdout=self.log, stderr=subprocess.STDOUT
        )
        deadline = clock() + 60.0
        while not (self.url_file.exists() and self.url_file.read_text().endswith("\n")):
            if self.process.poll() is not None or clock() > deadline:
                self.stop()
                raise RuntimeError("query server did not come up")
            time.sleep(0.005)
        url = self.url_file.read_text().strip()
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))
        while True:
            try:
                status, _ = request(self.address, "GET", "/health")
                if status == 200:
                    break
            except OSError:
                pass
            if clock() > deadline:
                self.stop()
                raise RuntimeError("query server never answered /health")
            time.sleep(0.005)

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        return self.process.returncode


def request(address: Tuple[str, int], method: str, path: str,
            document: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
    """One one-shot HTTP request (the front end closes every connection).

    The client aborts the finished connection (``SO_LINGER`` 0), so no
    ``TIME_WAIT`` entry is left on the loopback: thousands of them make
    every later ``connect`` slower, and the load generator would then
    measure its own history.
    """
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.connect()
        connection.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT)
        body = None if document is None else json.dumps(document)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


@dataclass(frozen=True)
class Question:
    document: Dict[str, Any]
    expected: float
    source: str


def question_stream(seed: int, rows: Dict[float, Dict[str, float]]):
    """An endless seeded zipfian stream of answerable questions.

    Sides are the grid sides and the midpoints between neighbours (the
    ``blend_rows`` path), each kind in its own seeded order, interleaved
    into one ranking with weights ``rank ** -1.1`` — so every seed's hot
    set mixes both kinds alike.  Half the questions are inverse (probability ->
    range), half forward (range -> probability).  Each carries the answer
    the stored rows imply, computed here with the program's own curve.
    """
    from repro.query.surrogate import blend_rows, fit_row

    grid = sorted(rows)
    exact = {side: fit_row(rows[side]) for side in grid}
    between = {}
    for low, high in zip(grid, grid[1:]):
        side = (low + high) / 2.0
        between[side] = (fit_row(blend_rows(low, rows[low], high, rows[high], side)), low)
    rng = random.Random(seed)
    sides, midpoints = list(exact), list(between)
    rng.shuffle(sides)
    rng.shuffle(midpoints)
    candidates = [side for pair in zip(sides, midpoints) for side in pair]
    candidates += sides[len(midpoints):]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(candidates))]
    probabilities = (0.1, 0.5, 0.9, 0.95, 0.99)
    while True:
        side = rng.choices(candidates, weights=weights)[0]
        if side in exact:
            curve, reference, source = exact[side], rows[side], "exact"
        else:
            curve, low = between[side]
            reference, source = rows[low], "interpolated"
        if rng.random() < 0.5:
            probability = rng.choice(probabilities)
            yield Question(
                {"model": "waypoint", "side": side, "probability": probability},
                curve.range_for(probability), source,
            )
        else:
            span = reference["r100"] - reference["r0"]
            range_ = reference["r0"] + (rng.random() * 1.2 - 0.1) * span
            yield Question(
                {"model": "waypoint", "side": side, "range": range_},
                curve.probability_at(range_), source,
            )


@dataclass
class Batch:
    wall: float
    latencies: List[float]
    hot: int
    failed: int


def run_batch(address: Tuple[str, int], questions: List[Question]) -> Batch:
    """Serve ``questions`` over ``WIDTH`` closed-loop client connections."""
    lock = threading.Lock()
    cursor = iter(questions)
    latencies: List[float] = []
    counts = {"hot": 0, "failed": 0}

    def client() -> None:
        while True:
            with lock:
                question = next(cursor, None)
            if question is None:
                return
            started = clock()
            try:
                status, answer = request(address, "POST", "/ask", question.document)
            except (OSError, http.client.HTTPException, ValueError):
                status, answer = 0, {}
            elapsed = clock() - started
            good = (
                status == 200
                and answer.get("value") == question.expected
                and answer.get("source") == question.source
                and answer.get("refine") is False
            )
            with lock:
                latencies.append(elapsed)
                counts["hot"] += bool(answer.get("hot"))
                counts["failed"] += not good

    started = clock()
    threads = [threading.Thread(target=client) for _ in range(WIDTH)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Batch(clock() - started, latencies, counts["hot"], counts["failed"])


def query_workload(seed: int, seconds: float, trace: bool, work: Path,
                   sizes: Sizes = FULL) -> Outcome:
    quiet_wait = wait_for_quiet_loopback()
    document = query_spec(seed, sizes)
    spec_path = work / "query-spec.json"
    spec_path.write_text(json.dumps(document), encoding="utf-8")
    trace_dir = work / "query-trace"
    setups: List[float] = []
    failed = attempted = 0
    servers: Dict[bool, QueryServer] = {}
    served = {False: 0, True: 0}
    try:
        rows: Dict[float, Dict[str, float]] = {}
        for index in range(1 if trace else SETUP_REPEATS):
            if servers:
                servers.pop(False).stop()
            started = clock()
            store = work / f"query-store-{index}"
            fresh = populate_store(document, store)
            servers[False] = QueryServer(spec_path, store, work, sizes.query_cache_cells)
            setups.append(clock() - started)
            if rows and fresh != rows:
                failed += 1  # the stored rows must not depend on the set-up
            rows = fresh
        if trace:
            servers[True] = QueryServer(
                spec_path, store, work, sizes.query_cache_cells, trace_dir=trace_dir
            )
        stream = question_stream(seed, rows)

        def serve(traced: bool) -> Batch:
            batch = run_batch(
                servers[traced].address,
                [next(stream) for _ in range(sizes.query_batch)],
            )
            served[traced] += 1
            return batch

        for flag in servers:  # fill the hot caches before timing
            failed += serve(flag).failed
            attempted += sizes.query_batch

        def body(index: int) -> Tuple[bool, Batch]:
            traced = trace and index % 2 == 1
            return traced, serve(traced)

        batches = repeat(seconds, body)
    finally:
        failed += sum(1 for running in servers.values() if running.stop() != 0)
    for _, batch in batches:
        attempted += sizes.query_batch
        failed += batch.failed

    timed = [batch for traced, batch in batches if not traced]
    latencies = [sample for batch in timed for sample in batch.latencies]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batch.wall for batch in timed),
        "throughput_per_s": statistics.median(sizes.query_batch / b.wall for b in timed),
        "latency_p50_ms": 1000.0 * layers.percentile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * layers.percentile(latencies, 0.99),
    }
    notes = [
        f"{len(batches)} batches of {sizes.query_batch} questions over "
        f"{len(rows)} grid sides ({len(timed)} untraced), cache "
        f"{sizes.query_cache_cells} cells",
        f"queries_per_s = throughput_per_s; query_p50_ms/query_p99_ms = "
        f"latency_p50_ms/latency_p99_ms over {len(latencies)} requests",
        f"waited {quiet_wait:.1f} s before set-up for earlier runs' TIME_WAIT "
        f"sockets to expire",
    ]
    per_layer: Dict[str, float] = {}
    if trace:
        traced_batches = [batch for traced, batch in batches if traced]
        per_layer = layers.query_layers(
            tracing.read(trace_dir),
            traced_batches,
            served[True],
            directory_bytes(store),
            overhead([b.wall for b in timed], [b.wall for b in traced_batches]),
        )
    return Outcome(end_to_end, per_layer, attempted, failed, notes)
