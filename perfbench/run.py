"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

Workloads: ``grid-cold``, ``fanout-small`` and ``query-zipf`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
untraced; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files live under
``.perfbench-work/`` in the repository and are removed on exit.
"""

from __future__ import annotations

import argparse
import atexit
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("grid-cold", "fanout-small", "query-zipf")
#: The seed runs use by default, and one kept back for re-checking claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: The names the workloads' own users know the generic metrics by.
ALIASES = {
    "grid-cold": {"throughput_per_s": "frames_per_s"},
    "fanout-small": {"throughput_per_s": "tasks_per_s"},
    "query-zipf": {
        "throughput_per_s": "queries_per_s",
        "latency_p50_ms": "query_p50_ms",
        "latency_p99_ms": "query_p99_ms",
    },
}


def calibrate() -> float:
    """Median seconds of a fixed NumPy plus pure-Python loop.

    Timed in this interpreter next to every run: a slower host (or a noisy
    neighbour) shows here, not as a regression of the program.
    """
    import numpy as np

    points = np.random.default_rng(0).random((32, 128, 2))
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(10):
            squared = ((points[:, :, None, :] - points[:, None, :, :]) ** 2).sum(-1)
            squared.argmin(axis=-1)
        total = 0
        for value in range(300_000):
            total += value * value % 7
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    The program starts one for its shared-memory transport, and left alone
    it outlives this process for a moment.  Registered with :mod:`atexit`
    before anything imports :mod:`multiprocessing`, so it runs after every
    other exit handler, the program's shared-memory sweep included (which
    talks to the tracker and would start a new one).
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    atexit.register(stop_resource_tracker)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=scratch))
    trace = bool(arguments.trace)
    try:
        calibration = calibrate()
        if arguments.workload == "query-zipf":
            outcome = workloads.query_workload(
                arguments.seed, arguments.seconds, trace, work
            )
        else:
            outcome = workloads.campaign_workload(
                arguments.workload, arguments.seed, arguments.seconds, trace, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    end_to_end = dict(outcome.end_to_end, peak_rss_mb=peak_rss_mb())
    aliases = ALIASES[arguments.workload]
    print(f"workload {arguments.workload}, seed {arguments.seed}, trace {arguments.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, unit in END_TO_END:
        label = aliases.get(name, name)
        print(f"  {label:24s} {end_to_end[name]:14.6f} {unit}")
    failed_fraction = outcome.failed / max(1, outcome.attempted)
    print(f"  {'failed_fraction':24s} {failed_fraction:14.6f} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    print(f"  {'host.calibration_s':24s} {calibration:14.6f} s")

    if trace:
        values = dict(outcome.per_layer, **{"host.calibration_s": calibration})
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, unit, _ in layers.PER_LAYER:
            print(f"  {name:36s} {values[name]:16.6f} {unit}")
    else:
        values = end_to_end
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
