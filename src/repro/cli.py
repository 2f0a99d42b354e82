"""Command line interface.

``python -m repro`` exposes the registered experiments::

    python -m repro list
    python -m repro run fig2 --scale smoke
    python -m repro run fig7 --scale default --output fig7.json
    python -m repro stationary --side 1024 --nodes 32
    python -m repro campaign run grid.toml --store .repro-store
    python -m repro campaign run grid.toml --total-workers 8
    python -m repro campaign status grid.toml --store .repro-store
    python -m repro campaign report --store .repro-store
    python -m repro campaign report --store .repro-store --chrome-trace out.json
    python -m repro campaign clean grid.toml --store .repro-store
    python -m repro campaign gc --store .repro-store --max-bytes 500000000
    python -m repro campaign serve grid.toml --port 8750 --max-retries 2
    python -m repro campaign work --server http://127.0.0.1:8750
    python -m repro query serve grid.toml --store .repro-store --port 8800
    python -m repro query ask --url http://127.0.0.1:8800 \\
        --nodes 32 --probability 0.9

``run`` measures an experiment's parameter values one after another in
this process: it is the reference every campaign is compared against.
``campaign run --total-workers W`` is the one width flag: the campaign
scheduler runs the parameter values of every scenario of the grid as
tasks in one pool of ``W`` worker processes, each value's iterations
serially inside its worker, caching every finished value and iteration.
Results are bit-identical to ``run`` for every ``W``.

``campaign serve`` + ``campaign work`` are the distributed variant of
the same grid: the serving process exposes its result store and a
pull-based work queue over HTTP, workers on any host lease tasks and
publish results back, and a worker that goes silent mid-lease is
re-enqueued under the same retry policy ``campaign run`` uses.  The
resulting store is bit-identical to a single-host run.

``query serve`` + ``query ask`` flip the batch pipeline into serving:
the query service answers critical-range / connectivity-probability
questions over a campaign's store at interactive latency, and questions
it cannot answer confidently come back flagged ``refine=true`` with a
refinement simulation enqueued for any attached ``campaign work``
worker (point it at the printed *fill* URL).

The CLI is intentionally thin: it parses arguments, calls the experiment
or campaign layer and prints the rendered tables.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.campaigns import CampaignResult, CampaignRunner, CampaignSpec
from repro.campaigns.progress import as_text as progress_as_text
from repro.telemetry import report as telemetry_report
from repro.experiments import (
    get_experiment,
    list_experiments,
    render_sweep,
    save_sweep,
)
from repro.experiments.registry import scale_by_name
from repro.simulation.runner import stationary_critical_range
from repro.store import ResultStore

#: Default result-store root of the campaign subcommands.
DEFAULT_STORE = ".repro-store"


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'An Evaluation of Connectivity in Mobile "
            "Wireless Ad Hoc Networks' (Santi & Blough, DSN 2002)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser("run", help="run a registered experiment")
    run_parser.add_argument("experiment", help="experiment identifier, e.g. fig2")
    run_parser.add_argument(
        "--scale",
        default="default",
        choices=["smoke", "default", "paper"],
        help="size preset (smoke: seconds, default: minutes, paper: hours)",
    )
    run_parser.add_argument(
        "--output",
        default=None,
        help="optional path (.json or .csv) to save the sweep result",
    )

    stationary_parser = subparsers.add_parser(
        "stationary", help="estimate the stationary critical range"
    )
    stationary_parser.add_argument("--side", type=float, required=True, help="region side l")
    stationary_parser.add_argument("--nodes", type=int, required=True, help="node count n")
    stationary_parser.add_argument("--dimension", type=int, default=2)
    stationary_parser.add_argument("--iterations", type=int, default=200)
    stationary_parser.add_argument("--confidence", type=float, default=0.99)
    stationary_parser.add_argument("--seed", type=int, default=None)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run declarative campaign grids against a cached result store",
    )
    campaign_commands = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def add_spec_and_store(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", help="campaign spec file (.toml or .json)")
        sub.add_argument(
            "--store",
            default=DEFAULT_STORE,
            help=f"result-store root directory (default: {DEFAULT_STORE})",
        )

    campaign_run = campaign_commands.add_parser(
        "run", help="run every scenario of a campaign spec"
    )
    add_spec_and_store(campaign_run)
    campaign_run.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "reuse intact store entries (default); --no-resume evicts the "
            "spec's entries first and recomputes from scratch"
        ),
    )
    campaign_run.add_argument(
        "--output-dir",
        default=None,
        help="optional directory to also save one <scenario>.json per sweep",
    )
    campaign_run.add_argument(
        "--quiet", action="store_true", help="suppress the per-scenario tables"
    )
    campaign_run.add_argument(
        "--total-workers",
        type=int,
        default=1,
        help=(
            "one worker budget for the whole campaign: the parameter "
            "values of every scenario run concurrently as tasks in one "
            "pool of this many workers (default: 1; results are "
            "bit-identical for every budget)"
        ),
    )
    campaign_run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help=(
            "failed attempts a value task may accumulate beyond its first "
            "before it is quarantined as a poison task and the campaign "
            "continues without it (default: 0 — the first failure aborts "
            "the run); crashed workers, task exceptions and timed-out "
            "tasks are retried per value with backoff on a replacement "
            "worker, bit-identically when the retry succeeds"
        ),
    )
    campaign_run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "seconds one value task may run before its worker is presumed "
            "hung and killed (default: no limit)"
        ),
    )
    campaign_run.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "base of the capped exponential delay between retry attempts "
            "(default: 0.5)"
        ),
    )
    campaign_run.add_argument(
        "--telemetry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "record a per-run trace under <store>/telemetry (default); "
            "--no-telemetry runs untraced"
        ),
    )

    campaign_serve = campaign_commands.add_parser(
        "serve",
        help=(
            "run a campaign as the serving side of a distributed fan-out: "
            "start the HTTP result server + work queue, then drive the "
            "grid through workers started with 'campaign work'"
        ),
    )
    add_spec_and_store(campaign_serve)
    campaign_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface the result server binds (default: 127.0.0.1)",
    )
    campaign_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="server port (default: 0 — the OS picks a free one)",
    )
    campaign_serve.add_argument(
        "--url-file",
        default=None,
        metavar="PATH",
        help=(
            "write the resolved server URL here once listening (hand it "
            "to 'campaign work --server'; essential with --port 0)"
        ),
    )
    campaign_serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "how long a leased task lives without a worker heartbeat "
            "before it is presumed lost and re-enqueued (default: 30)"
        ),
    )
    campaign_serve.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help=(
            "failed attempts a task may accumulate beyond its first — "
            "published worker errors and expired leases both count — "
            "before it is quarantined as a poison task (default: 0; the "
            "first failure aborts the serve)"
        ),
    )
    campaign_serve.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "base of the capped exponential delay before a charged task "
            "is leasable again (default: 0.5)"
        ),
    )
    campaign_serve.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "reuse intact store entries (default); --no-resume evicts the "
            "spec's entries first and recomputes from scratch"
        ),
    )
    campaign_serve.add_argument(
        "--telemetry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "record a per-run trace under <store>/telemetry (default); "
            "--no-telemetry runs untraced"
        ),
    )
    campaign_serve.add_argument(
        "--quiet", action="store_true", help="suppress the per-scenario tables"
    )

    campaign_work = campaign_commands.add_parser(
        "work",
        help=(
            "pull-based campaign worker: lease tasks from a 'campaign "
            "serve' URL, heartbeat while computing, publish results back; "
            "a paper-scale value reads and writes its iteration "
            "checkpoints in the server's store (needs no spec and no "
            "local store)"
        ),
    )
    campaign_work.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="base URL of the serving process (see --url-file on serve)",
    )
    campaign_work.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "sleep between connection attempts while the server is not "
            "up yet (default: 0.5); idle waits are the server's long poll"
        ),
    )
    campaign_work.add_argument(
        "--worker-id",
        default=None,
        help="lease owner name reported to the server (default: host:pid)",
    )
    campaign_work.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-task progress lines",
    )

    campaign_report = campaign_commands.add_parser(
        "report",
        help=(
            "summarise a recorded campaign run: slowest spans, cache hit "
            "rates, retry/quarantine counts, per-scenario wall clock"
        ),
    )
    campaign_report.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result-store root directory (default: {DEFAULT_STORE})",
    )
    campaign_report.add_argument(
        "--run",
        default=None,
        metavar="RUN_ID",
        help="run id under <store>/telemetry (default: the latest run)",
    )
    campaign_report.add_argument(
        "--limit",
        type=int,
        default=10,
        help="slowest spans listed (default: 10)",
    )
    campaign_report.add_argument(
        "--json",
        action="store_true",
        help="print the full run report as JSON instead of text",
    )
    campaign_report.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help=(
            "also export the run in Chrome trace_event format (open in "
            "chrome://tracing or Perfetto)"
        ),
    )

    campaign_status = campaign_commands.add_parser(
        "status",
        help=(
            "report per-scenario store progress without running "
            "(value- and iteration-granular coverage)"
        ),
    )
    add_spec_and_store(campaign_status)

    campaign_clean = campaign_commands.add_parser(
        "clean", help="evict every store entry the spec's grid addresses"
    )
    add_spec_and_store(campaign_clean)

    campaign_gc = campaign_commands.add_parser(
        "gc",
        help=(
            "garbage-collect the result store: evict entries older than "
            "--max-age, then the least recently used until under "
            "--max-bytes (store-wide; needs no spec)"
        ),
    )
    campaign_gc.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result-store root directory (default: {DEFAULT_STORE})",
    )
    campaign_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget the surviving entries must fit in (LRU eviction)",
    )
    campaign_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        help="evict entries not read or written for this many seconds",
    )
    campaign_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what the pass would evict without removing anything",
    )
    campaign_gc.add_argument(
        "--campaign",
        default=None,
        metavar="NAME",
        help=(
            "restrict the pass to entries written by the named campaign "
            "(matched against the entry metadata; default: the whole store)"
        ),
    )

    query_parser = subparsers.add_parser(
        "query",
        help=(
            "online critical-range query service over a campaign store "
            "(serve answers at interactive latency / ask one question)"
        ),
    )
    query_commands = query_parser.add_subparsers(
        dest="query_command", required=True
    )

    query_serve = query_commands.add_parser(
        "serve",
        help=(
            "serve interactive critical-range queries over a campaign "
            "store: hot answers from an in-memory cache, cold answers "
            "from disk, unanswerable ones refined through attached "
            "'campaign work' workers"
        ),
    )
    query_serve.add_argument(
        "spec", help="campaign spec (TOML or JSON) defining the served grid"
    )
    query_serve.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"result-store root directory (default: {DEFAULT_STORE})",
    )
    query_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface the query API binds (default: 127.0.0.1)",
    )
    query_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="query API port (default: 0 — the OS picks a free one)",
    )
    query_serve.add_argument(
        "--fill-port",
        type=int,
        default=0,
        help=(
            "port of the fill server (store + refinement work queue) "
            "that 'campaign work --server' workers attach to "
            "(default: 0 — the OS picks)"
        ),
    )
    query_serve.add_argument(
        "--url-file",
        default=None,
        metavar="PATH",
        help="write the resolved query API URL here once listening",
    )
    query_serve.add_argument(
        "--fill-url-file",
        default=None,
        metavar="PATH",
        help="write the resolved fill-server URL here once listening",
    )
    query_serve.add_argument(
        "--cache-cells",
        type=int,
        default=256,
        metavar="N",
        help=(
            "decoded grid cells (row + fitted curve) the in-memory hot "
            "cache keeps, LRU-evicted beyond it (default: 256)"
        ),
    )
    query_serve.add_argument(
        "--confidence-floor",
        type=float,
        default=1.0,
        metavar="F",
        help=(
            "minimum store-side cell coverage (0..1, as 'campaign "
            "status' counts it) below which in-grid answers are flagged "
            "refine=true and a refinement simulation is enqueued "
            "(default: 1.0 — trust only fully committed cells)"
        ),
    )
    query_serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="refinement-task lease without a heartbeat (default: 30)",
    )
    query_serve.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help=(
            "failed attempts one refinement task may accumulate beyond "
            "its first before it is quarantined (default: 1)"
        ),
    )
    query_serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the capped retry delay (default: 0.5)",
    )
    query_serve.add_argument(
        "--telemetry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "record query.* metrics in a per-run trace under "
            "<store>/telemetry (default); --no-telemetry serves untraced"
        ),
    )

    query_ask = query_commands.add_parser(
        "ask",
        help="ask one question of a running 'query serve' process",
    )
    query_ask.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="query API base URL (see 'query serve' / --url-file)",
    )
    query_ask.add_argument(
        "--model",
        default="waypoint",
        help="mobility model of the served grid (default: waypoint)",
    )
    size = query_ask.add_mutually_exclusive_group(required=True)
    size.add_argument(
        "--side",
        type=float,
        default=None,
        help="deployment region side length l",
    )
    size.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="node count n (converted through the paper's l = n**2)",
    )
    direction = query_ask.add_mutually_exclusive_group(required=True)
    direction.add_argument(
        "--probability",
        type=float,
        default=None,
        help=(
            "target connectivity probability — answers the critical "
            "transmitting range achieving it"
        ),
    )
    direction.add_argument(
        "--range",
        type=float,
        default=None,
        help=(
            "candidate transmitting range — answers the connectivity "
            "probability it buys"
        ),
    )
    query_ask.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="give up on the service after this long (default: 30)",
    )
    query_ask.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON answer instead of a sentence",
    )
    return parser


def _latest_scenario_activity(store: ResultStore) -> dict:
    """Per-scenario wall/last-activity of the store's latest recorded run.

    ``campaign status`` stays byte-identical when no telemetry run exists
    (or the report cannot be read) — this helper then returns an empty
    mapping and no suffix is printed.
    """
    try:
        run_dir = telemetry_report.latest_run_dir(
            Path(store.root) / "telemetry"
        )
        if run_dir is None:
            return {}
        report = telemetry_report.load_or_build_report(run_dir)
        scenarios = report.get("scenarios")
        return scenarios if isinstance(scenarios, dict) else {}
    except Exception:
        return {}


def _campaign_report_main(arguments: argparse.Namespace) -> int:
    """The ``campaign report`` subcommand (needs no spec)."""
    telemetry_root = Path(arguments.store) / "telemetry"
    if arguments.run is not None:
        run_dir = telemetry_root / arguments.run
        if not run_dir.is_dir():
            print(
                f"No run {arguments.run!r} under {telemetry_root}",
                file=sys.stderr,
            )
            return 1
    else:
        run_dir = telemetry_report.latest_run_dir(telemetry_root)
        if run_dir is None:
            print(
                f"No recorded runs under {telemetry_root} (run a campaign "
                f"with telemetry enabled first)",
                file=sys.stderr,
            )
            return 1
    report = telemetry_report.load_or_build_report(run_dir)
    if arguments.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(telemetry_report.render_report(report, limit=arguments.limit))
    if arguments.chrome_trace:
        exported = telemetry_report.chrome_trace(run_dir)
        path = Path(arguments.chrome_trace)
        path.write_text(
            json.dumps(exported, default=str), encoding="utf-8"
        )
        print(f"Chrome trace written to {path}")
    return 0


def _print_campaign_result(
    result: CampaignResult, quiet: bool, output_dir: Optional[str] = None
) -> int:
    """Print what ``campaign run`` and ``campaign serve`` report at the end.

    The summary line (with a warning when tasks were quarantined), a
    "no complete sweep" line per quarantined scenario, and, unless
    ``quiet``, every scenario's table; ``output_dir`` also saves one
    ``<scenario>.json`` per complete sweep.  Returns the exit code: 1
    when tasks were quarantined, else 0.
    """
    quarantined = result.quarantined_tasks
    summary = (
        f"\nDone: {result.cache_hits} cache hit(s), "
        f"{result.computed_values} value(s) computed."
    )
    if quarantined:
        summary += (
            f" WARNING: {quarantined} task(s) quarantined — partial "
            f"results kept; see 'campaign status', drop the records "
            f"with 'campaign clean'."
        )
    print(summary)
    for outcome in result.outcomes:
        if outcome.sweep is None:
            print(
                f"\n{outcome.scenario.describe()}: no complete sweep "
                f"({outcome.quarantined_values} quarantined task(s))"
            )
            continue
        if not quiet:
            print()
            print(
                render_sweep(
                    outcome.sweep,
                    title=f"{outcome.scenario.describe()} "
                    f"({'cached' if outcome.cache_hit else 'computed'})",
                )
            )
        if output_dir:
            safe_name = outcome.scenario.scenario_id.replace("/", "_")
            path = save_sweep(
                outcome.sweep,
                Path(output_dir) / f"{safe_name}.json",
                metadata={
                    "campaign": result.spec.name,
                    "scenario": outcome.scenario.scenario_id,
                },
            )
            print(f"Saved {outcome.scenario.scenario_id} to {path}")
    return 1 if quarantined else 0


def _campaign_main(arguments: argparse.Namespace) -> int:
    """Dispatch the ``campaign run / status / clean / gc`` subcommands."""
    if arguments.campaign_command == "gc":
        store = ResultStore(arguments.store)
        report = store.gc(
            max_bytes=arguments.max_bytes,
            max_age=arguments.max_age,
            dry_run=arguments.dry_run,
            campaign=arguments.campaign,
        )
        scope = (
            f"campaign {arguments.campaign!r} in store {store.root}"
            if arguments.campaign
            else f"Store {store.root}"
        )
        verb = "would evict" if arguments.dry_run else "evicted"
        print(
            f"{scope}: scanned {report.scanned} entr"
            f"{'y' if report.scanned == 1 else 'ies'}, {verb} "
            f"{report.evicted} ({report.freed_bytes} bytes freed, "
            f"{report.remaining_bytes} bytes remain)"
        )
        return 0

    if arguments.campaign_command == "report":
        return _campaign_report_main(arguments)

    if arguments.campaign_command == "work":
        # A worker needs neither spec nor store: everything it runs
        # arrives over the wire from the serving process.
        from repro.distributed import run_worker

        say = (lambda message: None) if arguments.quiet else print
        completed = run_worker(
            arguments.server,
            poll_interval=arguments.poll_interval,
            worker_id=arguments.worker_id,
            say=say,
        )
        print(f"Worker done: {completed} task(s) completed.")
        return 0

    spec = CampaignSpec.load(arguments.spec)
    store = ResultStore(arguments.store)

    if arguments.campaign_command == "serve":
        from repro.distributed import serve_campaign

        print(
            f"Campaign {spec.name!r}: {spec.scenario_count()} scenario(s), "
            f"store {store.root}"
        )
        result = serve_campaign(
            spec,
            store,
            host=arguments.host,
            port=arguments.port,
            lease_seconds=arguments.lease_seconds,
            max_retries=arguments.max_retries,
            retry_backoff=arguments.retry_backoff,
            telemetry_enabled=arguments.telemetry,
            resume=arguments.resume,
            progress=progress_as_text(print),
            url_file=(
                Path(arguments.url_file) if arguments.url_file else None
            ),
            on_ready=lambda url: print(f"Serving at {url}"),
        )
        return _print_campaign_result(result, quiet=arguments.quiet)

    runner = CampaignRunner(
        spec,
        store,
        total_workers=getattr(arguments, "total_workers", 1),
        max_retries=getattr(arguments, "max_retries", None),
        task_timeout=getattr(arguments, "task_timeout", None),
        retry_backoff=getattr(arguments, "retry_backoff", None),
        telemetry=getattr(arguments, "telemetry", None),
    )

    if arguments.campaign_command == "run":
        print(
            f"Campaign {spec.name!r}: {spec.scenario_count()} scenario(s), "
            f"store {store.root}"
        )
        result = runner.run(
            resume=arguments.resume, progress=progress_as_text(print)
        )
        return _print_campaign_result(
            result, quiet=arguments.quiet, output_dir=arguments.output_dir
        )

    if arguments.campaign_command == "status":
        statuses = runner.status()
        complete = sum(1 for status in statuses if status.complete)
        print(
            f"Campaign {spec.name!r}: {complete}/{len(statuses)} scenario(s) "
            f"complete in store {store.root}"
        )
        activity = _latest_scenario_activity(store)
        for status in statuses:
            line = f"  {status.scenario.describe():48s} {status.state}"
            entry = activity.get(status.scenario.scenario_id)
            if entry is not None:
                wall = entry.get("wall_seconds")
                if isinstance(wall, (int, float)):
                    line += f"  [wall {wall:.2f}s"
                    moment = entry.get("last_activity")
                    if isinstance(moment, (int, float)):
                        stamp = time.strftime(
                            "%Y-%m-%d %H:%M:%S", time.localtime(moment)
                        )
                        line += f", last activity {stamp}"
                    line += "]"
            print(line)
        return 0

    if arguments.campaign_command == "clean":
        removed = runner.clean()
        print(
            f"Campaign {spec.name!r}: evicted {removed} store entr"
            f"{'y' if removed == 1 else 'ies'} from {store.root}"
        )
        return 0

    raise AssertionError(f"unknown campaign command {arguments.campaign_command!r}")


def _query_main(arguments: argparse.Namespace) -> int:
    """Dispatch the ``query serve / ask`` subcommands."""
    if arguments.query_command == "serve":
        from repro.query.serving import serve_query_service

        spec = CampaignSpec.load(arguments.spec)
        store = ResultStore(arguments.store)
        print(
            f"Query service over campaign {spec.name!r} "
            f"(store {store.root})"
        )
        return serve_query_service(
            spec,
            store,
            host=arguments.host,
            port=arguments.port,
            fill_port=arguments.fill_port,
            cache_cells=arguments.cache_cells,
            confidence_floor=arguments.confidence_floor,
            lease_seconds=arguments.lease_seconds,
            max_retries=arguments.max_retries,
            retry_backoff=arguments.retry_backoff,
            telemetry_enabled=arguments.telemetry,
            url_file=(
                Path(arguments.url_file) if arguments.url_file else None
            ),
            fill_url_file=(
                Path(arguments.fill_url_file)
                if arguments.fill_url_file
                else None
            ),
        )

    if arguments.query_command == "ask":
        import urllib.error
        import urllib.request

        document = {"model": arguments.model}
        for name in ("side", "nodes", "probability", "range"):
            value = getattr(arguments, name)
            if value is not None:
                document[name] = value
        request = urllib.request.Request(
            f"{arguments.url.rstrip('/')}/ask",
            data=json.dumps(document).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        try:
            with opener.open(request, timeout=arguments.timeout) as response:
                answer = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body
            print(f"Query rejected ({error.code}): {message}", file=sys.stderr)
            return 1
        except urllib.error.URLError as error:
            print(
                f"Query service {arguments.url} unreachable: {error.reason}",
                file=sys.stderr,
            )
            return 1
        if arguments.json:
            print(json.dumps(answer, indent=2, sort_keys=True))
            return 0
        unit = answer.get("unit")
        value = answer.get("value")
        rendered = "no answer (nothing stored yet)" if value is None else (
            f"critical range = {value:.6g}"
            if unit == "range"
            else f"connectivity probability = {value:.6g}"
        )
        print(
            f"{rendered}  [model {answer.get('model')}, side "
            f"{answer.get('side'):g}, n {answer.get('nodes')}, "
            f"source {answer.get('source')}, "
            f"{'hot' if answer.get('hot') else 'cold'}]"
        )
        if answer.get("refine"):
            task = answer.get("refine_task")
            suffix = f" (work item {task})" if task else ""
            print(
                f"refine=true: answer is best-effort; a refinement "
                f"simulation is queued{suffix} — attach 'campaign work' "
                f"to the fill server to compute it."
            )
        return 0

    raise AssertionError(f"unknown query command {arguments.query_command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.command == "list":
        for experiment in list_experiments():
            print(f"{experiment.identifier:28s} {experiment.title}")
            print(f"{'':28s} ({experiment.paper_reference})")
        return 0

    if arguments.command == "run":
        experiment = get_experiment(arguments.experiment)
        print(f"Running {experiment.identifier}: {experiment.title}")
        print(experiment.description)
        sweep = experiment.run(scale_by_name(arguments.scale))
        print()
        print(render_sweep(sweep, title=f"{experiment.identifier} ({arguments.scale} scale)"))
        if arguments.output:
            path = save_sweep(
                sweep,
                arguments.output,
                metadata={
                    "experiment": experiment.identifier,
                    "scale": arguments.scale,
                },
            )
            print(f"\nSaved results to {path}")
        return 0

    if arguments.command == "campaign":
        return _campaign_main(arguments)

    if arguments.command == "query":
        return _query_main(arguments)

    if arguments.command == "stationary":
        value = stationary_critical_range(
            node_count=arguments.nodes,
            side=arguments.side,
            dimension=arguments.dimension,
            iterations=arguments.iterations,
            seed=arguments.seed,
            confidence=arguments.confidence,
        )
        print(
            f"rstationary(n={arguments.nodes}, l={arguments.side}, "
            f"d={arguments.dimension}, confidence={arguments.confidence}) = {value:.4f}"
        )
        return 0

    parser.error(f"unknown command {arguments.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
