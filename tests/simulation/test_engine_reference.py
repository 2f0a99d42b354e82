"""The engine's outputs for every mobility model against per-frame references.

:func:`~repro.simulation.engine.simulate_frame_statistics` draws a
placement, moves it with a mobility model and reduces every frame through
the batched MST kernel.  Here the same placement and trajectory are
rebuilt by hand from the same seed and each frame is reduced on its own:
by :func:`~repro.simulation.engine.frame_statistics` (the single-frame
kernel), and, for the fixed-range queries ``connected_at`` and
``largest_component_sizes_at``, by
:func:`~repro.connectivity.metrics.observe_placement` (the communication
graph built at the range).  Real trajectories bring what
random frames rarely do: paused and pinned nodes, repeated frames and
nodes clamped onto the region's walls.

:func:`~repro.simulation.runner.stationary_critical_range` is checked
against the critical ranges of the placements it draws.
"""

import math

import numpy as np
import pytest

from repro.connectivity.critical_range import critical_range
from repro.connectivity.metrics import observe_placement
from repro.placement.strategies import uniform_placement
from repro.simulation.config import MobilitySpec, NetworkConfig
from repro.simulation.engine import frame_statistics, simulate_frame_statistics
from repro.simulation.runner import stationary_critical_range
from repro.stats.rng import RandomSource

NODES = 10
SIDE = 60.0
STEPS = 25

MOBILITY = {
    "stationary": MobilitySpec.stationary(),
    "waypoint": MobilitySpec(
        name="waypoint",
        parameters={"vmin": 1.0, "vmax": 6.0, "tpause": 3, "pstationary": 0.3},
    ),
    "drunkard": MobilitySpec(
        # A step radius of half the side sends nodes into the walls often.
        name="drunkard",
        parameters={"step_radius": 30.0, "ppause": 0.2, "pstationary": 0.3},
    ),
    # The figures' regimes: the Section 4.2 presets, and the last values
    # of Figures 7 (every node pinned) and 9 (legs a few steps long).
    "waypoint-paper": MobilitySpec.paper_waypoint(SIDE),
    "drunkard-paper": MobilitySpec.paper_drunkard(SIDE),
    "waypoint-all-stationary": MobilitySpec.paper_waypoint(SIDE, pstationary=1.0),
    "waypoint-fastest": MobilitySpec.paper_waypoint(SIDE, vmax=0.5 * SIDE),
}


def network_of(dimension):
    return NetworkConfig(node_count=NODES, side=SIDE, dimension=dimension)


def trajectory_by_hand(network, mobility, seed):
    """The frames the engine sees for ``seed``, built without the engine."""
    rng = np.random.default_rng(seed)
    placement = uniform_placement(network.node_count, network.region, rng)
    model = mobility.create()
    model.initialize(placement, network.region, rng)
    return model.trajectory(STEPS, rng)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(MOBILITY))
def test_frame_statistics_equal_the_single_frame_reduction(name, dimension):
    network = network_of(dimension)
    frames = trajectory_by_hand(network, MOBILITY[name], seed=dimension)
    columns = simulate_frame_statistics(
        network, MOBILITY[name], STEPS, np.random.default_rng(dimension)
    )
    assert len(columns) == STEPS
    assert list(columns) == [frame_statistics(frame) for frame in frames]
    assert columns.critical_ranges.tolist() == [critical_range(f) for f in frames]


@pytest.mark.parametrize("quantile", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("name", sorted(MOBILITY))
def test_fixed_range_records_equal_the_graph_at_that_range(name, quantile):
    network = network_of(2)
    frames = trajectory_by_hand(network, MOBILITY[name], seed=17)
    # One frame's exact critical range, where rounding would show first.
    ranges = np.array([critical_range(frame) for frame in frames])
    radius = float(np.quantile(ranges, quantile, method="lower"))
    columns = simulate_frame_statistics(
        network, MOBILITY[name], STEPS, np.random.default_rng(17)
    )
    flags = columns.connected_at(radius)
    sizes = columns.largest_component_sizes_at(radius)
    assert len(flags) == len(sizes) == STEPS
    for frame, connected, largest in zip(frames, flags, sizes):
        observation = observe_placement(frame, radius)
        assert connected == observation.connected
        assert largest == observation.largest_component_size


@pytest.mark.parametrize("confidence", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_stationary_range_is_the_least_connecting_the_confidence_share(
    dimension, confidence
):
    iterations, seed = 40, 7
    value = stationary_critical_range(
        NODES, SIDE, dimension=dimension, iterations=iterations, seed=seed,
        confidence=confidence,
    )
    network = network_of(dimension)
    source = RandomSource.from_entropy(RandomSource(seed).entropy)
    placements = []
    for iteration in range(iterations):
        rng = source.child(iteration)
        placements.append(
            uniform_placement(network.node_count, network.region, rng)
        )

    def share_connected(radius):
        return np.mean([observe_placement(p, radius).connected for p in placements])

    assert value in [critical_range(placement) for placement in placements]
    assert share_connected(value) >= confidence
    assert share_connected(math.nextafter(value, 0.0)) < confidence
