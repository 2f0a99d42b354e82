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
* resuming with either API mid-run (trajectory → step → trajectory).
"""

import numpy as np
import pytest

from repro.geometry.region import Region
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.gauss_markov import GaussMarkovModel
from repro.mobility.group import ReferencePointGroupModel
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel

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
    "random-direction": lambda side: RandomDirectionModel(
        speed=0.03 * side, travel_steps=5, tpause=0
    ),
    "random-direction-paused": lambda side: RandomDirectionModel(
        speed=0.05 * side, travel_steps=3, tpause=6, pstationary=0.4
    ),
    "random-direction-boundary": lambda side: RandomDirectionModel(
        # One step crosses the whole region: every move reflects off a wall.
        speed=1.5 * side, travel_steps=4, tpause=1
    ),
    "gauss-markov": lambda side: GaussMarkovModel(
        mean_speed=0.02 * side, alpha=0.7, noise_std=0.01 * side
    ),
    "gauss-markov-stationary": lambda side: GaussMarkovModel(
        mean_speed=0.03 * side, alpha=0.5, noise_std=0.02 * side, pstationary=0.4
    ),
    "gauss-markov-boundary": lambda side: GaussMarkovModel(
        # Mean step crosses the whole region: every move reflects off a wall.
        mean_speed=1.5 * side, alpha=0.9, noise_std=0.2 * side
    ),
    "stationary": lambda side: StationaryModel(),
    "group": lambda side: ReferencePointGroupModel(
        group_count=3, vmin=0.02 * side, vmax=0.2 * side, tpause=2,
        member_radius=0.1 * side,
    ),
    "group-paused": lambda side: ReferencePointGroupModel(
        group_count=4, vmin=0.1, vmax=0.05 * side, tpause=7,
        member_radius=0.05 * side, pstationary=0.4,
    ),
    "group-single": lambda side: ReferencePointGroupModel(
        # One fast centre: every arrival event touches every node at once.
        group_count=1, vmin=0.1 * side, vmax=0.5 * side, tpause=0,
        member_radius=0.2 * side,
    ),
}


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


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_trajectory_bit_identical_to_steps(name, seed):
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


@pytest.mark.parametrize(
    "name",
    [
        "waypoint-paused",
        "drunkard-boundary",
        "random-direction-boundary",
        "gauss-markov-boundary",
        "group-paused",
    ],
)
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_trajectory_bit_identical_across_dimensions(name, dimension):
    (model_a, rng_a), (model_b, rng_b) = build_pair(name, 40.0, 9, dimension, 5)
    stepped = sequential_frames(model_a, rng_a, 33)
    batched = model_b.trajectory(33, rng_b)
    assert np.array_equal(stepped, batched)
    assert np.array_equal(rng_a.random(8), rng_b.random(8))


@pytest.mark.parametrize(
    "name",
    ["waypoint-paused", "drunkard", "random-direction-paused", "gauss-markov", "group"],
)
def test_interleaving_trajectory_and_step(name):
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


@pytest.mark.parametrize("name", ["waypoint-fast", "drunkard", "random-direction"])
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


def test_random_direction_stationary_nodes_pinned_in_trajectory():
    region = Region.square(50.0)
    rng = np.random.default_rng(23)
    model = RandomDirectionModel(speed=4.0, travel_steps=4, tpause=2, pstationary=0.5)
    initial = model.initialize(region.sample_uniform(25, rng), region, rng)
    mask = model.state.stationary_mask
    frames = model.trajectory(40, rng)
    assert mask.any()
    assert np.array_equal(
        frames[:, mask], np.broadcast_to(initial[mask], (40,) + initial[mask].shape)
    )
    moved = np.abs(frames[-1][~mask] - initial[~mask]).max()
    assert moved > 0.0


def test_random_direction_long_pause_spans_trajectory_boundary():
    """A node pausing across the batch horizon must resume correctly."""
    side = 60.0
    (model_a, rng_a), (model_b, rng_b) = build_pair(
        "random-direction-paused", side, 13, 2, 11
    )
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


def test_gauss_markov_stationary_nodes_pinned_in_trajectory():
    region = Region.square(50.0)
    rng = np.random.default_rng(24)
    model = GaussMarkovModel(mean_speed=2.0, alpha=0.6, noise_std=1.0, pstationary=0.5)
    initial = model.initialize(region.sample_uniform(25, rng), region, rng)
    mask = model.state.stationary_mask
    frames = model.trajectory(40, rng)
    assert mask.any()
    assert np.array_equal(
        frames[:, mask], np.broadcast_to(initial[mask], (40,) + initial[mask].shape)
    )
    moved = np.abs(frames[-1][~mask] - initial[~mask]).max()
    assert moved > 0.0


@pytest.mark.parametrize(
    "dimension,width", [(1, 2), (2, 2), (3, 5), (4, 5), (5, 7)]
)
def test_group_member_block_protocol(dimension, width):
    """Pin the group model's member-offset draw protocol.

    One ``rng.random((n, width))`` uniform block per step (radius uniform
    plus direction uniforms), decoded in closed form with the
    uniform-in-ball radius law ``member_radius * U^(1/d)``.  Trajectory
    batching relies on this fixed-width layout, so a silent change to the
    per-step stream consumption must fail here.
    """
    region = Region(side=90.0, dimension=dimension)
    rng = np.random.default_rng(31)
    model = ReferencePointGroupModel(
        group_count=2, vmin=0.1, vmax=0.2, tpause=3, member_radius=4.0
    )
    model.initialize(region.sample_uniform(8, rng), region, rng)
    assert model._member_block_width(dimension) == width

    # Decode law: offsets lie on the radius ``member_radius * U^(1/d)``.
    block = np.random.default_rng(7).random((8, width))
    offsets = model._decode_member_block(block)
    assert offsets.shape == (8, dimension)
    radii = 4.0 * block[:, 0] ** (1.0 / dimension)
    assert np.allclose(np.sqrt((offsets**2).sum(axis=1)), radii)
    if dimension == 1:
        signs = np.where(block[:, 1] < 0.5, -1.0, 1.0)
        assert np.array_equal(offsets[:, 0], signs * radii)
    if dimension == 2:
        assert np.allclose(offsets[:, 0], np.cos(2.0 * np.pi * block[:, 1]) * radii)
        assert np.allclose(offsets[:, 1], np.sin(2.0 * np.pi * block[:, 1]) * radii)

    # Stream consumption: a step with no centre arrival (slow centres in a
    # large region) draws exactly one (n, width) uniform block.
    shadow = np.random.default_rng(0)
    shadow.bit_generator.state = rng.bit_generator.state
    model.step(rng)
    shadow.random((8, width))
    assert np.array_equal(rng.random(4), shadow.random(4))


def test_group_trajectory_empty_network():
    region = Region.square(30.0)
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    model_a = ReferencePointGroupModel()
    model_b = ReferencePointGroupModel()
    model_a.initialize(np.empty((0, 2)), region, rng_a)
    model_b.initialize(np.empty((0, 2)), region, rng_b)
    stepped = sequential_frames(model_a, rng_a, 10)
    frames = model_b.trajectory(10, rng_b)
    assert frames.shape == (10, 0, 2)
    assert np.array_equal(stepped, frames)
    assert model_b.state.step_index == 9
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


def test_group_trajectory_matches_nested_center_state():
    """Batching must leave the nested centre waypoint model bit-identical
    to sequential stepping — legs, pauses and positions included."""
    (model_a, rng_a), (model_b, rng_b) = build_pair("group", 100.0, 15, 2, 17)
    sequential_frames(model_a, rng_a, 45)
    model_b.trajectory(45, rng_b)
    center_a = model_a._center_model
    center_b = model_b._center_model
    assert np.array_equal(center_a.state.positions, center_b.state.positions)
    assert center_a.state.step_index == center_b.state.step_index
    for name in (
        "_destinations",
        "_speeds",
        "_pause_remaining",
        "_leg_origins",
        "_leg_units",
        "_leg_lengths",
        "_leg_elapsed",
    ):
        assert np.array_equal(
            getattr(center_a, name), getattr(center_b, name)
        ), name


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
