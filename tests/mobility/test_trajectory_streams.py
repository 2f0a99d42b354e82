"""Property tests: vectorized ``trajectory()`` is bit-identical to stepping.

The contract of :meth:`repro.mobility.base.MobilityModel.trajectory` is
that a batched call consumes *exactly* the same random draws as
``steps - 1`` sequential :meth:`step` calls and produces exactly the same
frames — so the engine's batched execution can never change a simulation
result.  The waypoint and drunkard overrides are checked here frame by
frame, bit by bit, including:

* ``pstationary > 0`` (pinned nodes must not desynchronise the stream);
* boundary interaction (drunkard step radius larger than the region,
  waypoint nodes cruising to corner destinations);
* the random stream *after* the batch (further draws must match);
* the model state (positions, step index) left behind;
* resuming with either API mid-run (trajectory → step → trajectory);
* the regimes the figures run: the Section 4.2 presets and the end
  values of the Figures 7–9 parameter studies.

The waypoint and drunkard cases of the parity tests run on both lanes
of their trajectories (the ``kernel_lane`` fixture): the C lane of
:mod:`repro.connectivity.native`, under the case's plain id, and the
NumPy one, under ``<name>-numpy``.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.simulation.config import MobilitySpec

MODEL_BUILDERS = {
    "waypoint-fast": lambda side: RandomWaypointModel(
        vmin=0.02 * side, vmax=0.2 * side, tpause=2
    ),
    "waypoint-paused": lambda side: RandomWaypointModel(
        vmin=0.1, vmax=0.05 * side, tpause=7, pstationary=0.4
    ),
    "waypoint-no-pause": lambda side: RandomWaypointModel(
        vmin=0.5, vmax=0.01 * side + 0.5, tpause=0
    ),
    "drunkard": lambda side: DrunkardModel(step_radius=0.05 * side, ppause=0.3),
    "drunkard-stationary": lambda side: DrunkardModel(
        step_radius=0.1 * side, ppause=0.2, pstationary=0.5
    ),
    "drunkard-boundary": lambda side: DrunkardModel(
        # Radius beyond the region side: every move reflects off a wall.
        step_radius=2.0 * side, ppause=0.0
    ),
    "stationary": lambda side: StationaryModel(),
    # The figures' regimes: the Section 4.2 presets (Figures 2-6) and the
    # last value of each Figure 7-9 parameter study.
    "waypoint-paper": lambda side: MobilitySpec.paper_waypoint(side).create(),
    "drunkard-paper": lambda side: MobilitySpec.paper_drunkard(side).create(),
    "waypoint-all-stationary": lambda side: MobilitySpec.paper_waypoint(
        side, pstationary=1.0
    ).create(),
    "waypoint-long-pause": lambda side: MobilitySpec.paper_waypoint(
        side, tpause=10000
    ).create(),
    "waypoint-fastest": lambda side: MobilitySpec.paper_waypoint(
        side, vmax=0.5 * side
    ).create(),
}


def on_walk_lanes(names):
    """Parametrize ``name`` and the ``kernel_lane`` it runs on: a waypoint
    or drunkard model once per lane of its trajectory, the stationary
    model once."""
    cases = []
    for name in names:
        if name.startswith(("waypoint", "drunkard")):
            cases.append(pytest.param(name, "native", id=name))
            cases.append(pytest.param(name, "numpy", id=f"{name}-numpy"))
        else:
            cases.append(pytest.param(name, None, id=name))
    return pytest.mark.parametrize(
        ("name", "kernel_lane"), cases, indirect=["kernel_lane"]
    )


def build_pair(name, side, node_count, dimension, seed):
    """Two identically-seeded (model, rng) pairs ready to diverge."""
    region = Region(side=side, dimension=dimension)
    pairs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        model = MODEL_BUILDERS[name](side)
        model.initialize(region.sample_uniform(node_count, rng), region, rng)
        pairs.append((model, rng))
    return pairs


def sequential_frames(model, rng, steps):
    frames = np.empty((steps,) + model.state.positions.shape)
    frames[0] = model.state.positions
    for index in range(1, steps):
        frames[index] = model.step(rng)
    return frames


@on_walk_lanes(sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_trajectory_bit_identical_to_steps(name, kernel_lane, seed):
    (model_a, rng_a), (model_b, rng_b) = build_pair(name, 120.0, 17, 2, seed)
    steps = 61
    stepped = sequential_frames(model_a, rng_a, steps)
    batched = model_b.trajectory(steps, rng_b)
    assert np.array_equal(stepped, batched)
    # The stream position afterwards must match exactly too.
    assert np.array_equal(rng_a.random(16), rng_b.random(16))
    # And so must the state left behind.
    assert np.array_equal(model_a.state.positions, model_b.state.positions)
    assert model_a.state.step_index == model_b.state.step_index


@on_walk_lanes(
    [
        "waypoint-paused",
        "drunkard-boundary",
        "waypoint-paper",
        "drunkard-paper",
        "waypoint-all-stationary",
        "waypoint-long-pause",
        "waypoint-fastest",
    ]
)
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_trajectory_bit_identical_across_dimensions(name, kernel_lane, dimension):
    (model_a, rng_a), (model_b, rng_b) = build_pair(name, 40.0, 9, dimension, 5)
    stepped = sequential_frames(model_a, rng_a, 33)
    batched = model_b.trajectory(33, rng_b)
    assert np.array_equal(stepped, batched)
    assert np.array_equal(rng_a.random(8), rng_b.random(8))


@on_walk_lanes(
    [
        "waypoint-paused", "drunkard", "waypoint-paper", "drunkard-paper",
        "waypoint-all-stationary", "waypoint-long-pause", "waypoint-fastest",
    ]
)
def test_interleaving_trajectory_and_step(name, kernel_lane):
    """trajectory → step → trajectory stays on the sequential stream."""
    (model_a, rng_a), (model_b, rng_b) = build_pair(name, 80.0, 11, 2, 9)
    reference = sequential_frames(model_a, rng_a, 40)
    first = model_b.trajectory(14, rng_b)
    middle = np.stack([model_b.step(rng_b) for _ in range(5)])
    # A later trajectory's frame 0 repeats the current positions.
    second = model_b.trajectory(22, rng_b)
    resumed = np.concatenate([first, middle, second[1:]])
    assert np.array_equal(reference, resumed)
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_trajectory_of_one_step_consumes_nothing(name):
    (model_a, rng_a), (model_b, rng_b) = build_pair(name, 50.0, 6, 2, 3)
    frames = model_b.trajectory(1, rng_b)
    assert np.array_equal(frames[0], model_a.state.positions)
    assert np.array_equal(rng_a.random(8), rng_b.random(8))


# Every override checks its own step count.
@pytest.mark.parametrize(
    "name",
    [
        "waypoint-fast", "drunkard", "stationary",
        "waypoint-paper", "drunkard-paper", "waypoint-all-stationary",
    ],
)
def test_trajectory_of_no_steps_is_refused(name):
    ((model, rng), _) = build_pair(name, 50.0, 6, 2, 3)
    with pytest.raises(ConfigurationError, match="steps must be at least 1"):
        model.trajectory(0, rng)


@pytest.mark.parametrize("name", ["waypoint-fast", "drunkard", "waypoint-paper"])
def test_trajectory_empty_network(name):
    region = Region.square(30.0)
    rng = np.random.default_rng(2)
    model = MODEL_BUILDERS[name](30.0)
    model.initialize(np.empty((0, 2)), region, rng)
    frames = model.trajectory(10, rng)
    assert frames.shape == (10, 0, 2)
    # The empty network still "takes" the steps, exactly like step() calls.
    assert model.state.step_index == 9
    assert np.array_equal(rng.random(4), np.random.default_rng(2).random(4))


def test_waypoint_long_pause_spans_trajectory_boundary():
    """A node pausing across the batch horizon must resume correctly."""
    side = 60.0
    (model_a, rng_a), (model_b, rng_b) = build_pair("waypoint-paused", side, 13, 2, 11)
    reference = sequential_frames(model_a, rng_a, 30)
    # Split into many tiny batches so pauses and legs straddle boundaries.
    chunks = [model_b.trajectory(4, rng_b)]
    produced = 4
    while produced < 30:
        count = min(3, 30 - produced)
        chunks.append(model_b.trajectory(count + 1, rng_b)[1:])
        produced += count
    assert np.array_equal(reference, np.concatenate(chunks))
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


def test_drunkard_stationary_nodes_pinned_in_trajectory():
    region = Region.square(50.0)
    rng = np.random.default_rng(21)
    model = DrunkardModel(step_radius=5.0, ppause=0.1, pstationary=0.6)
    initial = model.initialize(region.sample_uniform(25, rng), region, rng)
    mask = model.state.stationary_mask
    frames = model.trajectory(40, rng)
    assert mask.any()
    assert np.array_equal(
        frames[:, mask], np.broadcast_to(initial[mask], (40,) + initial[mask].shape)
    )
    moved = np.abs(frames[-1][~mask] - initial[~mask]).max()
    assert moved > 0.0


def test_waypoint_degenerately_slow_nodes_terminate():
    """Speeds so small the arrival estimate overflows an int64 cast must
    not hang the event loop — the nodes simply never arrive in-horizon."""
    region = Region.square(100.0)
    rng1, rng2 = np.random.default_rng(6), np.random.default_rng(6)
    slow1 = RandomWaypointModel(vmin=1e-300, vmax=1e-300, tpause=0)
    slow2 = RandomWaypointModel(vmin=1e-300, vmax=1e-300, tpause=0)
    slow1.initialize(region.sample_uniform(5, rng1), region, rng1)
    slow2.initialize(region.sample_uniform(5, rng2), region, rng2)
    stepped = sequential_frames(slow1, rng1, 12)
    assert np.array_equal(stepped, slow2.trajectory(12, rng2))
    assert np.array_equal(rng1.random(4), rng2.random(4))


def test_waypoint_stationary_nodes_pinned_in_trajectory():
    region = Region.square(50.0)
    rng = np.random.default_rng(22)
    model = RandomWaypointModel(vmin=1.0, vmax=6.0, tpause=1, pstationary=0.5)
    initial = model.initialize(region.sample_uniform(25, rng), region, rng)
    mask = model.state.stationary_mask
    frames = model.trajectory(40, rng)
    assert mask.any()
    assert np.array_equal(
        frames[:, mask], np.broadcast_to(initial[mask], (40,) + initial[mask].shape)
    )
