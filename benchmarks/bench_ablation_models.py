"""Ablation — does the mobility model matter?

The paper's central qualitative finding is that random waypoint and
drunkard mobility produce nearly identical connectivity statistics.  This
ablation runs the paper's two models on identical networks and measures
how far apart their r100, r90 and r10 estimates are.
"""

import os

import pytest

import repro
from repro.experiments.report import format_table
from repro.simulation.search import estimate_thresholds_from_statistics

SIDE = 1024.0
NODE_COUNT = 32
SEED = 77


def _scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    steps = {"smoke": 30, "default": 150, "paper": 10000}[name]
    iterations = {"smoke": 2, "default": 3, "paper": 50}[name]
    return steps, iterations


def _thresholds_for(spec, steps, iterations):
    config = repro.SimulationConfig(
        network=repro.NetworkConfig(node_count=NODE_COUNT, side=SIDE, dimension=2),
        mobility=spec,
        steps=steps,
        iterations=iterations,
        seed=SEED,
    )
    statistics = repro.collect_frame_statistics(config)
    return estimate_thresholds_from_statistics(statistics)


def _all_models(steps, iterations):
    specs = {
        "waypoint": repro.MobilitySpec.paper_waypoint(SIDE),
        "drunkard": repro.MobilitySpec.paper_drunkard(SIDE),
    }
    return {name: _thresholds_for(spec, steps, iterations) for name, spec in specs.items()}


def test_mobility_model_ablation(benchmark):
    steps, iterations = _scale()
    results = benchmark.pedantic(
        _all_models, args=(steps, iterations), rounds=1, iterations=1, warmup_rounds=0
    )

    rows = [
        {"model": name, "r100": t.r100, "r90": t.r90, "r10": t.r10, "r0": t.r0}
        for name, t in results.items()
    ]
    print()
    print(format_table(rows, precision=4))

    # The paper's claim: thresholds within a modest relative band of each
    # other.
    waypoint = results["waypoint"]
    drunkard = results["drunkard"]
    assert waypoint.r100 == pytest.approx(drunkard.r100, rel=0.5)
    assert waypoint.r90 == pytest.approx(drunkard.r90, rel=0.5)
    assert waypoint.r10 == pytest.approx(drunkard.r10, rel=0.5)
