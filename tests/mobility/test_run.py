"""Bit-identity tests for :meth:`MobilityModel.run`.

``run(k)`` fast-forwards a model by ``k`` steps and returns only the
final positions.  Its contract is absolute: afterwards the model's
positions, step index and generator stream are **bit-identical** to ``k``
sequential :meth:`step` calls, and every later frame (which depends on the
model's private per-node state — legs, pauses, velocities, nested centre
models) continues the sequential walk exactly.  It must also agree with
the last frame of a batched :meth:`trajectory` over the same horizon.
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

SIDE = 100.0
N = 17

MODEL_FACTORIES = {
    "stationary": lambda: StationaryModel(),
    "drunkard": lambda: DrunkardModel(
        step_radius=1.5, ppause=0.3, pstationary=0.1
    ),
    "waypoint": lambda: RandomWaypointModel(
        vmin=0.5, vmax=2.0, tpause=2, pstationary=0.1
    ),
    "group": lambda: ReferencePointGroupModel(
        group_count=3, vmin=0.5, vmax=2.0, tpause=1, member_radius=8.0,
        pstationary=0.1
    ),
    "random-direction": lambda: RandomDirectionModel(
        speed=1.5, travel_steps=5, tpause=2, pstationary=0.1
    ),
    "gauss-markov": lambda: GaussMarkovModel(
        mean_speed=1.5, alpha=0.7, noise_std=0.5, pstationary=0.1
    ),
}


def initialized_pair(name, seed=711):
    """Two identical models with identical seeded generators."""
    region = Region(side=SIDE, dimension=2)
    placement = region.sample_uniform(N, np.random.default_rng(seed))
    pair = []
    for _ in range(2):
        model = MODEL_FACTORIES[name]()
        generator = np.random.default_rng(seed + 1)
        model.initialize(placement.copy(), region, generator)
        pair.append((model, generator))
    return pair


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
@pytest.mark.parametrize("steps", [0, 1, 2, 7, 150])
def test_run_matches_sequential_steps_bitwise(name, steps):
    (stepped, stepped_rng), (ran, ran_rng) = initialized_pair(name)
    for _ in range(steps):
        stepped.step(stepped_rng)
    final = ran.run(steps, ran_rng)

    assert np.array_equal(final, stepped.state.positions)
    assert np.array_equal(ran.state.positions, stepped.state.positions)
    assert ran.state.step_index == stepped.state.step_index == steps
    # The walk continues identically, so the private per-node state the
    # next frames depend on matches as well as the generator position.
    assert np.array_equal(
        stepped.trajectory(12, stepped_rng), ran.trajectory(12, ran_rng)
    )
    assert np.array_equal(stepped_rng.random(8), ran_rng.random(8))


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_run_agrees_with_the_last_trajectory_frame(name):
    (batched, batched_rng), (ran, ran_rng) = initialized_pair(name)
    frames = batched.trajectory(41, batched_rng)
    final = ran.run(40, ran_rng)
    assert np.array_equal(frames[-1], final)
    assert batched.state.step_index == ran.state.step_index
    assert np.array_equal(batched_rng.random(4), ran_rng.random(4))


def test_run_zero_consumes_no_draws():
    (reference, reference_rng), (ran, ran_rng) = initialized_pair("drunkard")
    assert np.array_equal(ran.run(0, ran_rng), reference.state.positions)
    assert ran.state.step_index == 0
    assert np.array_equal(reference_rng.random(4), ran_rng.random(4))


def test_stationary_run_moves_nothing_and_draws_nothing():
    (model, generator), _ = initialized_pair("stationary")
    before = model.state.positions.copy()
    fresh = np.random.default_rng(99)
    expected_next = np.random.default_rng(99).random(4)
    model.run(1000, fresh)
    assert np.array_equal(model.state.positions, before)
    assert model.state.step_index == 1000
    assert np.array_equal(fresh.random(4), expected_next)  # zero draws


def test_run_on_empty_network_takes_steps_without_draws():
    region = Region(side=SIDE, dimension=2)
    model = DrunkardModel(step_radius=1.0)
    generator = np.random.default_rng(3)
    model.initialize(np.empty((0, 2)), region, generator)
    probe = np.random.default_rng(4)
    expected_next = np.random.default_rng(4).random(4)
    assert model.run(50, probe).shape == (0, 2)
    assert model.state.step_index == 50
    assert np.array_equal(probe.random(4), expected_next)


def test_run_returns_a_copy():
    (model, generator), _ = initialized_pair("drunkard")
    final = model.run(5, generator)
    final[:] = -1.0
    assert np.all(model.state.positions >= 0.0)
