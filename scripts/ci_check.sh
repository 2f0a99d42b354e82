#!/usr/bin/env sh
# Mechanical checks for collection and performance regressions.
#
#   sh scripts/ci_check.sh
#
# 1. The full tier-1 suite must collect and pass from a clean checkout
#    (guards against the pytest basename-collision regression this repo
#    shipped with).
# 2. The benchmark's own tests (perfbench/, outside tier-1 testpaths):
#    every entry point the benchmark traces must still resolve and its
#    spans must reach the per-layer report, so a refactor that breaks a
#    traced entry point fails here.
# 3. The vectorized frame-reduction smoke benchmark must pass at smoke
#    scale: the batched MST sweep faster than the dense reference sweep,
#    with identical curves.
# 4. The columnar payload smoke benchmark must pass at smoke scale: the
#    frame-statistics payload >= 1.3x smaller pickled than the list of
#    per-frame objects.
# 5. The campaign cache benchmark must pass at smoke scale: a warm
#    re-run is a pure cache hit (zero computed values, >= 5x faster) and
#    a checkpoint-only store reassembles every sweep without recomputing.
# 6. A campaign smoke run through the real CLI at the default budget:
#    cold run (it must exit 0 and, since fig4 shares fig2's sweep, report
#    a cache hit for fig4@seed=20020623), warm re-run (which must report
#    zero computed values), status, clean.
# 7. The campaign scheduler benchmark must pass at smoke scale: four
#    heterogeneous scenarios under one total worker budget, budget 4
#    >= 1.5x faster than the default budget of 1, results bit-identical
#    at every budget.
# 8. A wider smoke through the real CLI (--total-workers 2): cold
#    concurrent run, then a warm re-run that must report zero computed
#    values (every budget addresses identical store entries).
# 9. The README's first command against the campaign pool: `repro run
#    fig7 --scale smoke --output` measures every value in this process,
#    `campaign run` of a one-experiment fig7 smoke spec with
#    --total-workers 2 --output-dir runs the same values as tasks in a
#    pool of two workers, and the two files must hold equal rows.
# 10. An iteration-resume smoke: a multi-iteration value killed partway
#    resumes at the first unfinished iteration, recomputes nothing, and
#    matches the uninterrupted run bit for bit.  Then the same through the
#    figure path and the real CLI, at the shipped checkpoint threshold: a
#    fig2 value (side 256, n = 16, 3 iterations) with just enough steps to
#    reach CHECKPOINT_MIN_NODE_FRAMES is failed by a fault at its 3rd
#    iteration; `campaign status` must report 2 of 3 iterations stored,
#    the resumed run's trace must hold exactly one iteration span (the
#    third), and its row must equal an uninterrupted run's in a fresh
#    store.
# 11. A campaign gc smoke through the real CLI: a tight --max-bytes
#    budget evicts entries, a second run under the same budget is stable.
# 12. The kernel lanes: the kernel reference tests run explicitly, each
#    on both lanes, native C and NumPy (every row of the batched MST must
#    equal the single-frame MST of its frame, its memory must stay linear
#    in B * n, and the batched frame statistics must equal the per-frame
#    ones), and so do the mobility lanes' parity tests (waypoint and
#    drunkard trajectories equal per-step step() calls on both lanes, the
#    C walk equals the NumPy decode and loop, and the C waypoint event
#    loop the Python one, frames, per-node state and random stream, bit
#    for bit) and the native lane's own tests (both C Prim passes, the
#    8-frame AVX-512 one with its sorting network and the one-frame
#    compacted one with its merge sort, equal the NumPy lane bit for
#    bit, on batches of full groups of 8 frames, remainders and both,
#    and full groups take the 8-frame pass where the library reports 8
#    lanes).  The MST kernel benchmark must pass at smoke scale; its
#    batch of 341 = 42 * 8 + 5 frames runs both passes, and it prints
#    the lane count.  It fails when the C lane does not load; the NumPy
#    lane's edges equal the old stacked-matrix kernel's, and the C
#    lane's edges, sweep columns, drunkard trajectory and waypoint
#    trajectory the NumPy lane's, bit for bit.  The perf-regression gate
#    (step 22) grades matrix_free_speedup (stacked / NumPy lane, so a
#    slower fallback still fails), native_speedup (NumPy lane / C lane
#    for Prim plus the growth-curve sweep, baselined on a CPU with
#    AVX-512, so a silent fallback to the one-frame pass there regresses
#    it), native_walk_speedup (NumPy decode and loop / C walk for a
#    drunkard trajectory at n = 128) and native_waypoint_speedup (Python
#    event loop / C event loop for a waypoint trajectory at n = 128).
# 13. The fault-tolerance lane: the supervision-overhead benchmark must
#    pass at smoke scale (armed retries/lease < 3% over the unsupervised
#    gather on a clean run; recovering from one injected worker SIGKILL
#    <= 1.5x the clean run, results bit-identical), and a chaos smoke
#    through the real CLI: a campaign with a worker-kill fault plan armed
#    (REPRO_FAULTS) and --max-retries 2 must complete with exit 0 (the
#    dead worker is replaced and only its value task retried), the
#    fault's hit counter must read exactly 5 (four value tasks plus the
#    one killed attempt: no neighbour was charged or re-run), a warm
#    re-run must report zero computed values (the recovered run
#    addressed the same store entries a healthy one would), and no stale
#    staging directories may survive.
# 14. Every benchmark above writes a BENCH_<name>.json summary into
#    $REPRO_BENCH_OUT; they are collected and printed at the end, so the
#    perf trajectory is tracked as structured data across PRs.
# 15. The telemetry-overhead benchmark must pass at smoke scale: tracing
#    a scheduled campaign costs < 2% wall clock over --no-telemetry, and
#    the traced run's sink must actually contain the campaign's task
#    spans (cheap because tracing is cheap, not because it didn't run).
# 16. A telemetry smoke through the real CLI: a traced campaign run,
#    then `campaign report` (text summary and --chrome-trace export);
#    every line of the per-run trace.jsonl must parse as JSON, the
#    report must aggregate the run's spans, and the Chrome export must
#    be loadable trace_event JSON.
# 17. The distributed fan-out benchmark must pass at smoke scale: two
#    loopback HTTP workers bit-identical to one, and >= 1.4x faster on
#    hosts with >= 4 cores (serve + two workers need room to overlap).
# 18. A distributed smoke through the real CLI: `campaign serve` on a
#    loopback port (--url-file announces the picked port), two
#    `campaign work` processes drain the example grid, all three exit 0,
#    and each worker must report at least one completed task.  Both
#    workers share one fault plan (REPRO_FAULTS, one counter): the first
#    two results published in the run each wait 5 s, well under the
#    30 s lease, so whichever worker leases first cannot drain the grid
#    and stop the serve before the other's first contact (which would
#    leave that worker retrying a refused connection and exiting 1);
#    the later worker has about 10 s to arrive.  The serve log must
#    hold no `Traceback` (workers leaving their
#    keep-alive connections, or giving up on a long-polled lease, are
#    routine and must stay quiet), and a warm re-serve must report zero
#    computed values (the distributed run addressed the same store
#    entries a local one would).
# 19. A store object over HTTP at iteration granularity, through the real
#    CLI: step 10's fig2 value (just above the checkpoint threshold) is
#    served with --max-retries 0 to one `campaign work` armed with a
#    fresh copy of step 10's fault plan (raise at the 3rd iteration), and
#    the serve must fail; `campaign status` must then report 2 of 3
#    iterations stored, which only the worker's two iteration PUTs can
#    have written.  A second serve is drained by a worker armed to fail
#    at its 2nd iteration and must exit 0: the resume read iterations 1-2
#    over HTTP and simulated only the third.  A local warm `campaign run`
#    must compute nothing, and its fig2.json must equal step 10's
#    uninterrupted output byte for byte.
# 20. The query-service benchmark must pass at smoke scale: hot answers
#    sub-millisecond p50 / single-digit-millisecond p99 and cold misses
#    under 100 ms p99 on any host, a zipfian stream mostly served from
#    the LRU, and the event loop never blocked by store IO (1 ms
#    heartbeat lag stays bounded while cold queries decode cells).
# 21. A query smoke through the real CLI, both halves of the contract:
#    against a store warmed by `campaign run examples/query_smoke.toml`,
#    `query serve` + `query ask` answer an in-grid question with
#    refine=false from exact stored rows; against an EMPTY store the
#    same question answers refine=true and enqueues one refinement on
#    the fill server, a stock `campaign work --server <fill-url>`
#    worker computes it and exits, and a re-ask becomes a refine=false
#    exact answer — the cache-fill loop closes end to end.  The cold
#    serve runs at --confidence-floor 0.5: one refined side of the
#    two-side cell clears the floor (the default floor of 1.0 keeps
#    flagging a half-complete cell, by design).  A question far past the
#    grid (--nodes 1000000) must answer refine=false: refinement stops at
#    4x the grid's largest side, so no client can queue a simulation at
#    n = 10^6 for the worker.
# 22. The perf-regression gate: the fresh BENCH_*.json summaries are
#    graded against benchmarks/baseline.json (host-normalized metrics
#    only, core-count-gated, noise-banded); a regression beyond the band
#    or a missing baselined summary fails the script.  Finally
#    $REPRO_BENCH_OUT/run_report.json is written — tier-1 result, bench
#    summaries, campaign-smoke outcome and the regression verdicts as
#    one structured CI artifact.
set -eu
cd "$(dirname "$0")/.."

REPRO_BENCH_OUT="${REPRO_BENCH_OUT:-$(mktemp -d)}"
export REPRO_BENCH_OUT

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest perfbench -q

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_parallel_scaling.py -q

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_sweep_scaling.py -q

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_campaign_cache.py -q

CAMPAIGN_STORE="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE"' EXIT
COLD_OUT="$(PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$CAMPAIGN_STORE" --quiet)"
printf '%s\n' "$COLD_OUT" | grep -q "fig4@seed=20020623: cache hit"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$CAMPAIGN_STORE" --quiet \
    | grep -q "0 value(s) computed"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign status examples/campaign_smoke.toml --store "$CAMPAIGN_STORE"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign clean examples/campaign_smoke.toml --store "$CAMPAIGN_STORE"

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_campaign_scheduler.py -q

SCHEDULER_STORE="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$SCHEDULER_STORE" \
    --total-workers 2 --quiet
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$SCHEDULER_STORE" \
    --total-workers 2 --quiet \
    | grep -q "0 value(s) computed"

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    run fig7 --scale smoke --output "$RUN_DIR/run.json" > /dev/null
printf 'name = "run-equals-campaign"\nexperiments = ["fig7"]\nscale = "smoke"\n' \
    > "$RUN_DIR/fig7.toml"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run "$RUN_DIR/fig7.toml" --store "$RUN_DIR/store" \
    --total-workers 2 --quiet --output-dir "$RUN_DIR/campaign" > /dev/null
RUN_DIR="$RUN_DIR" python - <<'RUN_EQUALS_CAMPAIGN'
import json
import os
from pathlib import Path

root = Path(os.environ["RUN_DIR"])
run = json.loads((root / "run.json").read_text())["rows"]
campaign = json.loads((root / "campaign" / "fig7.json").read_text())["rows"]
assert run and campaign == run, "campaign run rows differ from repro run rows"
print("run equals campaign: OK")
RUN_EQUALS_CAMPAIGN

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    tests/connectivity/test_mst_batch.py tests/connectivity/test_native.py \
    tests/simulation/test_engine.py tests/mobility/test_trajectory_streams.py \
    tests/mobility/test_drunkard_walk.py tests/mobility/test_waypoint_trajectory.py -q

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_mst_kernel.py -q

GC_STORE="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$GC_STORE" --quiet
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign gc --store "$GC_STORE" --max-bytes 1 \
    | grep -q "evicted [1-9]"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign gc --store "$GC_STORE" --max-bytes 1 \
    | grep -q "evicted 0"

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'RESUME_SMOKE'
import tempfile

from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.runner import collect_frame_statistics
from repro.store import ResultStore, StoreSweepCheckpoint

config = SimulationConfig(
    network=NetworkConfig(node_count=8, side=100.0, dimension=2),
    mobility=MobilitySpec.paper_waypoint(100.0),
    steps=4, iterations=5, seed=20020623,
)
reference = collect_frame_statistics(config)


class KillAfter:
    def __init__(self, inner, k):
        self.inner, self.k, self.saves = inner, k, 0

    def load(self, index):
        return self.inner.load(index)

    def save(self, index, result):
        self.inner.save(index, result)
        self.saves += 1
        if self.saves >= self.k:
            raise RuntimeError("simulated kill")


with tempfile.TemporaryDirectory() as root:
    checkpoint = StoreSweepCheckpoint(
        ResultStore(root), {"smoke": "iteration-resume"}, iterations=5
    )
    try:
        collect_frame_statistics(
            config, checkpoint=KillAfter(checkpoint.iteration_checkpoint(1.0), 3)
        )
        raise SystemExit("kill did not fire")
    except RuntimeError:
        pass
    resumed_checkpoint = checkpoint.iteration_checkpoint(1.0)
    resumed = collect_frame_statistics(config, checkpoint=resumed_checkpoint)
    assert resumed_checkpoint.loaded == 3, resumed_checkpoint.loaded
    assert resumed_checkpoint.saved == 2, resumed_checkpoint.saved
    assert resumed == reference
print("iteration-resume smoke: OK")
RESUME_SMOKE

FIGURE_RESUME_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR"' EXIT
FIGURE_RESUME_DIR="$FIGURE_RESUME_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'FIGURE_RESUME_SPEC'
import json
import math
import os
from pathlib import Path

from repro.experiments.figures import CHECKPOINT_MIN_NODE_FRAMES
from repro.simulation.config import paper_node_count

root = Path(os.environ["FIGURE_RESUME_DIR"])
side, iterations = 256.0, 3
# The fewest steps that put the value at or above the threshold.
steps = math.ceil(CHECKPOINT_MIN_NODE_FRAMES / (paper_node_count(side) * iterations))
(root / "fig2.json").write_text(json.dumps({
    "name": "figure-resume",
    "experiments": ["fig2"],
    "scale": "smoke",
    "overrides": {
        "sides": [side],
        "steps": steps,
        "iterations": iterations,
        "stationary_iterations": 30,
    },
}))
(root / "faults").mkdir()
(root / "faults" / "plan.json").write_text(json.dumps(
    {"faults": [{"site": "iteration", "action": "raise", "at": 3}]}
))
FIGURE_RESUME_SPEC
if REPRO_FAULTS="$FIGURE_RESUME_DIR/faults/plan.json" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run "$FIGURE_RESUME_DIR/fig2.json" --store "$FIGURE_RESUME_DIR/store" \
    --quiet > "$FIGURE_RESUME_DIR/killed.log" 2>&1; then
    echo "the iteration fault did not stop the figure campaign" >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign status "$FIGURE_RESUME_DIR/fig2.json" --store "$FIGURE_RESUME_DIR/store" \
    | grep -q "partial (0/1 values, 2/3 iterations)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run "$FIGURE_RESUME_DIR/fig2.json" --store "$FIGURE_RESUME_DIR/store" \
    --quiet --output-dir "$FIGURE_RESUME_DIR/resumed" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run "$FIGURE_RESUME_DIR/fig2.json" --store "$FIGURE_RESUME_DIR/fresh" \
    --quiet --output-dir "$FIGURE_RESUME_DIR/uninterrupted" > /dev/null
cmp "$FIGURE_RESUME_DIR/resumed/fig2.json" "$FIGURE_RESUME_DIR/uninterrupted/fig2.json"
FIGURE_RESUME_DIR="$FIGURE_RESUME_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'FIGURE_RESUME_TRACE'
import os
from pathlib import Path

from repro.telemetry import report

run_dir = report.latest_run_dir(Path(os.environ["FIGURE_RESUME_DIR"]) / "store" / "telemetry")
spans = report.read_trace(run_dir)["spans"]
simulated = [s["attrs"]["index"] for s in spans if s["name"] == "iteration"]
assert simulated == [2], f"the resume simulated iterations {simulated}"
print("figure iteration-resume smoke: OK")
FIGURE_RESUME_TRACE

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_fault_overhead.py -q

CHAOS_DIR="$(mktemp -d)"
CHAOS_STORE="$CHAOS_DIR/store"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR" "$CHAOS_DIR"' EXIT
cat > "$CHAOS_DIR/faultplan.json" <<'PLAN'
{"faults": [{"site": "measure", "action": "kill", "at": 1}], "state_dir": ""}
PLAN
REPRO_FAULTS="$CHAOS_DIR/faultplan.json" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$CHAOS_STORE" \
    --total-workers 2 --max-retries 2 --quiet
if [ "$(cat "$CHAOS_DIR/hits-0")" != 5 ]; then
    echo "the chaos smoke's kill fault counted $(cat "$CHAOS_DIR/hits-0") measure hits, not 5" >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$CHAOS_STORE" \
    --total-workers 2 --quiet \
    | grep -q "0 value(s) computed"
if [ -d "$CHAOS_STORE/staging" ] && [ -n "$(ls -A "$CHAOS_STORE/staging")" ]; then
    echo "stale staging directories survived the chaos smoke" >&2
    exit 1
fi
echo "chaos smoke: OK"

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_telemetry_overhead.py -q

TELEMETRY_DIR="$(mktemp -d)"
TELEMETRY_STORE="$TELEMETRY_DIR/store"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR" "$CHAOS_DIR" "$TELEMETRY_DIR"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/campaign_smoke.toml --store "$TELEMETRY_STORE" \
    --total-workers 2 --quiet
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign report --store "$TELEMETRY_STORE" \
    | grep "Spans:" > /dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign report --store "$TELEMETRY_STORE" \
    --chrome-trace "$TELEMETRY_DIR/chrome.json" > /dev/null
TELEMETRY_STORE="$TELEMETRY_STORE" TELEMETRY_DIR="$TELEMETRY_DIR" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'TELEMETRY_SMOKE'
import json
import os
from pathlib import Path

from repro.telemetry import report

store = Path(os.environ["TELEMETRY_STORE"])
run_dir = report.latest_run_dir(store / "telemetry")
assert run_dir is not None, "campaign run recorded no telemetry"
for line in (run_dir / "trace.jsonl").read_text().splitlines():
    if line.strip():
        json.loads(line)  # every line of the sink is valid JSON
trace = report.read_trace(run_dir)
assert trace["spans"], "trace holds no spans"
assert trace["bad_lines"] == 0, trace["bad_lines"]
built = report.load_or_build_report(run_dir)
assert built["spans"]["count"] == len(trace["spans"])
assert built["scenarios"], "report aggregated no scenarios"
chrome = json.loads((Path(os.environ["TELEMETRY_DIR"]) / "chrome.json").read_text())
events = chrome["traceEvents"]
assert events and all(e["ph"] in ("X", "i") for e in events)
assert all(isinstance(e["ts"], (int, float)) for e in events)
print("telemetry smoke: OK")
TELEMETRY_SMOKE

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_distributed_fanout.py -q

DIST_DIR="$(mktemp -d)"
DIST_STORE="$DIST_DIR/store"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR" "$CHAOS_DIR" "$TELEMETRY_DIR" "$DIST_DIR"' EXIT
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign serve examples/campaign_smoke.toml --store "$DIST_STORE" \
    --port 0 --url-file "$DIST_DIR/url" --max-retries 2 --quiet \
    > "$DIST_DIR/serve.log" 2>&1 &
DIST_SERVE_PID=$!
DIST_TRIES=0
while [ ! -s "$DIST_DIR/url" ]; do
    DIST_TRIES=$((DIST_TRIES + 1))
    if [ "$DIST_TRIES" -gt 30 ]; then
        echo "campaign serve never published its URL" >&2
        cat "$DIST_DIR/serve.log" >&2 || true
        kill "$DIST_SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 1
done
DIST_URL="$(cat "$DIST_DIR/url")"
mkdir "$DIST_DIR/faults"
cat > "$DIST_DIR/faults/plan.json" <<'PLAN'
{"faults": [{"site": "queue.publish", "action": "hang", "seconds": 5, "at": 1, "count": 2}]}
PLAN
REPRO_FAULTS="$DIST_DIR/faults/plan.json" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign work --server "$DIST_URL" --quiet > "$DIST_DIR/work1.log" 2>&1 &
DIST_W1_PID=$!
REPRO_FAULTS="$DIST_DIR/faults/plan.json" \
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign work --server "$DIST_URL" --quiet > "$DIST_DIR/work2.log" 2>&1 &
DIST_W2_PID=$!
for DIST_PID in "$DIST_W1_PID" "$DIST_W2_PID" "$DIST_SERVE_PID"; do
    if ! wait "$DIST_PID"; then
        echo "a distributed smoke process failed:" >&2
        cat "$DIST_DIR/work1.log" "$DIST_DIR/work2.log" "$DIST_DIR/serve.log" >&2
        exit 1
    fi
done
for DIST_LOG in "$DIST_DIR/work1.log" "$DIST_DIR/work2.log"; do
    if ! grep -Eq "^Worker done: [1-9][0-9]* task\(s\) completed\.$" "$DIST_LOG"; then
        echo "a campaign work process did not share the grid:" >&2
        cat "$DIST_LOG" >&2
        exit 1
    fi
done
grep -q "value(s) computed" "$DIST_DIR/serve.log"
if grep -q "Traceback" "$DIST_DIR/serve.log"; then
    echo "campaign serve printed a traceback:" >&2
    cat "$DIST_DIR/serve.log" >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign serve examples/campaign_smoke.toml --store "$DIST_STORE" \
    --port 0 --quiet \
    | grep -q "0 value(s) computed"
echo "distributed smoke: OK"

WIRE_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR" "$CHAOS_DIR" "$TELEMETRY_DIR" "$DIST_DIR" "$WIRE_DIR"' EXIT
mkdir "$WIRE_DIR/kill-faults" "$WIRE_DIR/resume-faults"
cp "$FIGURE_RESUME_DIR/faults/plan.json" "$WIRE_DIR/kill-faults/plan.json"
cat > "$WIRE_DIR/resume-faults/plan.json" <<'PLAN'
{"faults": [{"site": "iteration", "action": "raise", "at": 2}]}
PLAN
# Serve step 10's fig2 spec from $WIRE_DIR/store with --max-retries 0 to
# one worker armed with the fault plan $1; returns the serve's exit code.
wire_serve() {
    rm -f "$WIRE_DIR/url"
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
        campaign serve "$FIGURE_RESUME_DIR/fig2.json" --store "$WIRE_DIR/store" \
        --port 0 --url-file "$WIRE_DIR/url" --max-retries 0 --quiet \
        > "$WIRE_DIR/serve.log" 2>&1 &
    WIRE_SERVE_PID=$!
    WIRE_TRIES=0
    while [ ! -s "$WIRE_DIR/url" ]; do
        WIRE_TRIES=$((WIRE_TRIES + 1))
        if [ "$WIRE_TRIES" -gt 30 ]; then
            echo "campaign serve never published its URL" >&2
            cat "$WIRE_DIR/serve.log" >&2 || true
            kill "$WIRE_SERVE_PID" 2>/dev/null || true
            exit 1
        fi
        sleep 1
    done
    REPRO_FAULTS="$1" PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
        campaign work --server "$(cat "$WIRE_DIR/url")" --quiet \
        > "$WIRE_DIR/work.log" 2>&1 &
    WIRE_WORK_PID=$!
    WIRE_STATUS=0
    wait "$WIRE_SERVE_PID" || WIRE_STATUS=$?
    if ! wait "$WIRE_WORK_PID"; then
        echo "campaign work failed:" >&2
        cat "$WIRE_DIR/work.log" >&2
        exit 1
    fi
    return "$WIRE_STATUS"
}
if wire_serve "$WIRE_DIR/kill-faults/plan.json"; then
    echo "the iteration fault did not stop the served figure value" >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign status "$FIGURE_RESUME_DIR/fig2.json" --store "$WIRE_DIR/store" \
    | grep -q "partial (0/1 values, 2/3 iterations)"
if ! wire_serve "$WIRE_DIR/resume-faults/plan.json"; then
    echo "the served resume simulated a stored iteration again:" >&2
    cat "$WIRE_DIR/serve.log" >&2
    exit 1
fi
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run "$FIGURE_RESUME_DIR/fig2.json" --store "$WIRE_DIR/store" \
    --quiet --output-dir "$WIRE_DIR/warm" > "$WIRE_DIR/warm.log"
grep -q "0 value(s) computed" "$WIRE_DIR/warm.log"
cmp "$WIRE_DIR/warm/fig2.json" "$FIGURE_RESUME_DIR/uninterrupted/fig2.json"
echo "wire resume smoke: OK"

REPRO_BENCH_SCALE=smoke PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/bench_query_service.py -q

QUERY_DIR="$(mktemp -d)"
trap 'rm -rf "$CAMPAIGN_STORE" "$SCHEDULER_STORE" "$RUN_DIR" "$GC_STORE" "$FIGURE_RESUME_DIR" "$CHAOS_DIR" "$TELEMETRY_DIR" "$DIST_DIR" "$WIRE_DIR" "$QUERY_DIR"' EXIT

# Warm half: a served warm store answers in-grid questions exactly.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign run examples/query_smoke.toml --store "$QUERY_DIR/warm-store" --quiet
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query serve examples/query_smoke.toml --store "$QUERY_DIR/warm-store" \
    --port 0 --url-file "$QUERY_DIR/warm-url" \
    > "$QUERY_DIR/warm-serve.log" 2>&1 &
QUERY_WARM_PID=$!
QUERY_TRIES=0
while [ ! -s "$QUERY_DIR/warm-url" ]; do
    QUERY_TRIES=$((QUERY_TRIES + 1))
    if [ "$QUERY_TRIES" -gt 30 ]; then
        echo "query serve (warm) never published its URL" >&2
        cat "$QUERY_DIR/warm-serve.log" >&2 || true
        kill "$QUERY_WARM_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 1
done
QUERY_WARM_URL="$(cat "$QUERY_DIR/warm-url")"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query ask --url "$QUERY_WARM_URL" --side 256 --probability 0.9 --json \
    > "$QUERY_DIR/warm-answer.json"
grep -q '"refine": false' "$QUERY_DIR/warm-answer.json"
grep -q '"source": "exact"' "$QUERY_DIR/warm-answer.json"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query ask --url "$QUERY_WARM_URL" --side 400 --range 50 \
    | grep -q "connectivity probability"
kill -TERM "$QUERY_WARM_PID"
wait "$QUERY_WARM_PID"

# Fill half: an empty store answers refine=true, enqueues the missing
# simulation, a stock worker computes it, and the re-ask is exact.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query serve examples/query_smoke.toml --store "$QUERY_DIR/cold-store" \
    --port 0 --url-file "$QUERY_DIR/cold-url" \
    --fill-url-file "$QUERY_DIR/fill-url" --max-retries 2 \
    --confidence-floor 0.5 \
    > "$QUERY_DIR/cold-serve.log" 2>&1 &
QUERY_COLD_PID=$!
QUERY_TRIES=0
while [ ! -s "$QUERY_DIR/cold-url" ] || [ ! -s "$QUERY_DIR/fill-url" ]; do
    QUERY_TRIES=$((QUERY_TRIES + 1))
    if [ "$QUERY_TRIES" -gt 30 ]; then
        echo "query serve (cold) never published its URLs" >&2
        cat "$QUERY_DIR/cold-serve.log" >&2 || true
        kill "$QUERY_COLD_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 1
done
QUERY_COLD_URL="$(cat "$QUERY_DIR/cold-url")"
QUERY_FILL_URL="$(cat "$QUERY_DIR/fill-url")"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query ask --url "$QUERY_COLD_URL" --side 256 --probability 0.9 --json \
    > "$QUERY_DIR/cold-answer.json"
grep -q '"refine": true' "$QUERY_DIR/cold-answer.json"
grep -q '"refine_task": "' "$QUERY_DIR/cold-answer.json"
# Far past the grid (n = 10^6, side 10^12): answered, never queued for
# the worker below.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    query ask --url "$QUERY_COLD_URL" --nodes 1000000 --probability 0.9 --json \
    > "$QUERY_DIR/far-answer.json"
grep -q '"refine": false' "$QUERY_DIR/far-answer.json"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
    campaign work --server "$QUERY_FILL_URL" --quiet
QUERY_TRIES=0
while :; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro \
        query ask --url "$QUERY_COLD_URL" --side 256 --probability 0.9 --json \
        > "$QUERY_DIR/refined-answer.json"
    if grep -q '"refine": false' "$QUERY_DIR/refined-answer.json"; then
        break
    fi
    QUERY_TRIES=$((QUERY_TRIES + 1))
    if [ "$QUERY_TRIES" -gt 30 ]; then
        echo "refined answer never landed in the serving cache" >&2
        cat "$QUERY_DIR/refined-answer.json" >&2 || true
        kill "$QUERY_COLD_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 1
done
grep -q '"source": "exact"' "$QUERY_DIR/refined-answer.json"
kill -TERM "$QUERY_COLD_PID"
wait "$QUERY_COLD_PID"
echo "query smoke: OK"

if PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.telemetry.regression \
    --baseline benchmarks/baseline.json --results "$REPRO_BENCH_OUT" \
    --json "$REPRO_BENCH_OUT/regression_verdicts.json"; then
    REGRESSION_STATUS=passed
else
    REGRESSION_STATUS=failed
fi

python - <<'COLLECT_BENCH'
import json
import os
from pathlib import Path

out = Path(os.environ["REPRO_BENCH_OUT"])
summaries = sorted(out.glob("BENCH_*.json"))
if not summaries:
    raise SystemExit(f"no BENCH_*.json summaries found in {out}")
print(f"\ncollected {len(summaries)} benchmark summaries from {out}:")
for path in summaries:
    document = json.loads(path.read_text())
    metrics = document.get("metrics", {})
    headline = ", ".join(
        f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in sorted(metrics.items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    print(f"  {path.name} [{document.get('scale')}]: {headline}")
COLLECT_BENCH

REGRESSION_STATUS="$REGRESSION_STATUS" python - <<'RUN_REPORT'
import json
import os
import time
from pathlib import Path

out = Path(os.environ["REPRO_BENCH_OUT"])
verdicts_path = out / "regression_verdicts.json"
verdicts = (
    json.loads(verdicts_path.read_text()) if verdicts_path.is_file() else []
)
report = {
    "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    # set -eu: reaching this step means every earlier gate passed.
    "tier1": {"status": "passed"},
    "campaign_smoke": {"status": "passed"},
    "benchmarks": {
        path.name[len("BENCH_"):-len(".json")]: json.loads(path.read_text())
        for path in sorted(out.glob("BENCH_*.json"))
    },
    "regression": {
        "status": os.environ["REGRESSION_STATUS"],
        "verdicts": verdicts,
    },
}
path = out / "run_report.json"
path.write_text(json.dumps(report, indent=2, sort_keys=True))
print(f"CI run report written to {path}")
RUN_REPORT

if [ "$REGRESSION_STATUS" != passed ]; then
    echo "perf regression gate failed (see verdicts above)" >&2
    exit 1
fi
