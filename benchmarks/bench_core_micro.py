"""Micro-benchmarks of the per-frame kernels and the point-graph reference.

Every mobility frame is reduced to its exact critical range and
component-growth curve; the point graph (construction, components,
connectivity check) is the brute-force reference those kernels are tested
against.  These benchmarks time both at the paper's largest network size
(n = 128 for l = 16K) so that performance regressions in the substrate
are caught.
"""

import numpy as np
import pytest

from repro.connectivity.critical_range import critical_range
from repro.graph.builder import build_communication_graph
from repro.graph.components import connected_components, is_connected
from repro.simulation.engine import component_growth_curve, frame_statistics

NODE_COUNT = 128          # n = sqrt(16384), the paper's largest setting
SIDE = 16384.0
RADIUS = 2200.0           # near the connectivity threshold for this density


@pytest.fixture(scope="module")
def placement() -> np.ndarray:
    return np.random.default_rng(3).uniform(0.0, SIDE, size=(NODE_COUNT, 2))


def test_graph_construction(benchmark, placement):
    graph = benchmark(lambda: build_communication_graph(placement, RADIUS))
    assert graph.node_count == NODE_COUNT


def test_connected_components(benchmark, placement):
    graph = build_communication_graph(placement, RADIUS)
    components = benchmark(lambda: connected_components(graph))
    assert sum(len(c) for c in components) == NODE_COUNT


def test_connectivity_check(benchmark, placement):
    graph = build_communication_graph(placement, RADIUS)
    benchmark(lambda: is_connected(graph))


def test_exact_critical_range(benchmark, placement):
    value = benchmark(lambda: critical_range(placement))
    assert value > 0.0


def test_component_growth_curve(benchmark, placement):
    curve = benchmark(lambda: component_growth_curve(placement))
    assert curve[-1][1] == NODE_COUNT


def test_frame_statistics(benchmark, placement):
    stats = benchmark(lambda: frame_statistics(placement))
    assert stats.node_count == NODE_COUNT


def test_mobility_step_waypoint(benchmark):
    """One random-waypoint step for the paper's largest network."""
    import repro

    region = repro.Region.square(SIDE)
    rng = repro.make_rng(9)
    model = repro.RandomWaypointModel(vmin=0.1, vmax=0.01 * SIDE, tpause=2000)
    model.initialize(region.sample_uniform(NODE_COUNT, rng), region, rng)
    benchmark(lambda: model.step(rng))
