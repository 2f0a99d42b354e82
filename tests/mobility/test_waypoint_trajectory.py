"""The waypoint trajectory's two lanes agree bit for bit.

:meth:`repro.mobility.waypoint.RandomWaypointModel.trajectory` runs its
event loop in C (``repro_waypoint_trajectory`` in
``connectivity/native.c``) when the native library loads and the
network has one to three dimensions, and otherwise in
:meth:`~repro.mobility.waypoint.RandomWaypointModel._fill_frames`, the
parity reference.  Over consecutive calls of 1, 2 and 257 steps, both
lanes must leave the same frames, the same seven per-node arrays of the
model and the same random stream, bit for bit, and both must equal
per-step :meth:`~repro.mobility.base.MobilityModel.step` calls.  The
cases cover one to three dimensions, 1 to 129 nodes, pauses of 0, 1 and
2000 steps, no and only stationary nodes, ``vmin == vmax``, zero-length
legs (a region of one subnormal side, where most destinations coincide)
and frames that the per-step clamp clips.
"""

from __future__ import annotations

import threading
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connectivity import native
from repro.geometry.region import Region
from repro.mobility.waypoint import RandomWaypointModel

#: The model's per-node arrays that the C lane advances in place.
LEG_ARRAYS = (
    "_destinations", "_speeds", "_pause_remaining", "_leg_origins",
    "_leg_units", "_leg_lengths", "_leg_elapsed",
)

#: Consecutive trajectory calls, in steps.
CALLS = (1, 2, 257)


class Case(NamedTuple):
    dimension: int
    node_count: int
    side: float
    vmin: float
    #: ``vmax`` is ``vmin * speed_spread``; 1.0 draws every speed equal.
    speed_spread: float
    tpause: int
    pstationary: float
    seed: int


@st.composite
def cases(draw) -> Case:
    side = draw(st.sampled_from([5e-324, 1.0, 120.0, 16384.0]))
    return Case(
        dimension=draw(st.integers(min_value=1, max_value=3)),
        node_count=draw(st.integers(min_value=1, max_value=129)),
        side=side,
        vmin=draw(st.sampled_from([1e-3, 0.1, 0.3])) * max(side, 1e-300),
        speed_spread=draw(st.sampled_from([1.0, 2.0, 50.0])),
        tpause=draw(st.sampled_from([0, 1, 2000])),
        pstationary=draw(st.sampled_from([0.0, 1.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def seeded_model(case: Case):
    region = Region(side=case.side, dimension=case.dimension)
    rng = np.random.default_rng(case.seed)
    model = RandomWaypointModel(
        vmin=case.vmin, vmax=case.vmin * case.speed_spread,
        tpause=case.tpause, pstationary=case.pstationary,
    )
    model.initialize(region.sample_uniform(case.node_count, rng), region, rng)
    return model, rng


def legs(model):
    return [getattr(model, name).copy() for name in LEG_ARRAYS]


def trajectories(case: Case, library):
    """Every call's frames, the per-node arrays after each call and the
    next draws, with :func:`repro.connectivity.native.load` returning
    ``library``."""
    model, rng = seeded_model(case)
    frames, states = [], []
    with mock.patch.object(native, "load", return_value=library):
        for steps in CALLS:
            frames.append(model.trajectory(steps, rng))
            states.append(legs(model))
    return frames, states, model.state.positions, rng.random(4)


def stepped(case: Case):
    """The same calls as per-step ``step()`` calls."""
    model, rng = seeded_model(case)
    frames, states = [], []
    for steps in CALLS:
        block = [model.state.positions.copy()]
        block += [model.step(rng) for _ in range(steps - 1)]
        frames.append(np.stack(block))
        states.append(legs(model))
    return frames, states, model.state.positions, rng.random(4)


def assert_bitwise_equal(observed, expected):
    assert observed.shape == expected.shape
    assert observed.dtype == expected.dtype
    assert observed.tobytes() == expected.tobytes()


def assert_same_run(observed, expected):
    (frames, states, positions, draws), reference = observed, expected
    for call, (block, reference_block) in enumerate(zip(frames, reference[0])):
        assert_bitwise_equal(block, reference_block)
        for array, reference_array in zip(states[call], reference[1][call]):
            assert_bitwise_equal(array, reference_array)
    assert_bitwise_equal(positions, reference[2])
    assert_bitwise_equal(draws, reference[3])


@settings(max_examples=120, deadline=None)
@given(case=cases())
@example(case=Case(2, 128, 16384.0, 0.1, 1638.4, 2000, 0.0, 20020623))
@example(case=Case(3, 129, 5e-324, 5e-324, 1.0, 0, 0.0, 7))
@example(case=Case(1, 1, 1.0, 0.3, 1.0, 1, 1.0, 3))
@example(case=Case(2, 17, 120.0, 2.4, 10.0, 2, 0.0, 11))
def test_the_c_lane_equals_the_python_loop_and_steps(native_library, case):
    observed = trajectories(case, native_library)
    assert_same_run(observed, trajectories(case, None))
    assert_same_run(observed, stepped(case))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_zero_length_legs_arrive_at_once(native_library, dimension):
    """Legs whose destination is their origin: length 0, unit 0."""
    case = Case(dimension, 9, 50.0, 0.5, 3.0, 1, 0.0, 5)
    runs = []
    for library in (native_library, None):
        model, rng = seeded_model(case)
        positions = model.state.positions
        model._begin_leg(
            np.arange(case.node_count), positions, positions.copy(),
            model._speeds.copy(),
        )
        assert not model._leg_lengths.any()
        with mock.patch.object(native, "load", return_value=library):
            runs.append((model.trajectory(12, rng), legs(model), rng.random(4)))
    (frames, state, draws), (reference, reference_state, reference_draws) = runs
    assert_bitwise_equal(frames, reference)
    for array, reference_array in zip(state, reference_state):
        assert_bitwise_equal(array, reference_array)
    assert_bitwise_equal(draws, reference_draws)
    # Every node arrives at step 1 and rests there for its one-step pause.
    assert_bitwise_equal(frames[1], frames[0])


@pytest.mark.parametrize(
    "speed, length",
    [
        (0.1, 0.1 * 3),
        (0.2144578844416115, 173.71088639770534),
        (1 / 97, 1.3505154639175259),
        (0.09247290128736017, 48.640746077151455),
    ],
    ids=["long-3", "long-811", "short-140", "short-526"],
)
def test_arrival_estimates_are_corrected_alike(native_library, speed, length):
    """Legs where ``ceil(length / speed)`` is one step long or one step
    short of the first step with ``speed * steps >= length``: both lanes
    correct it, and arrive when per-step calls do."""
    case = Case(2, 3, 200.0, 0.5, 2.0, 0, 0.0, 17)
    runs = []
    for library in (native_library, None, "steps"):
        model, rng = seeded_model(case)
        model._speeds[:] = speed
        model._leg_lengths[:] = length
        if library == "steps":
            block = [model.state.positions.copy()]
            block += [model.step(rng) for _ in range(899)]
            frames = np.stack(block)
        else:
            with mock.patch.object(native, "load", return_value=library):
                frames = model.trajectory(900, rng)
        runs.append((frames, legs(model), rng.random(4)))
    for frames, state, draws in runs[1:]:
        assert_bitwise_equal(runs[0][0], frames)
        for array, reference_array in zip(runs[0][1], state):
            assert_bitwise_equal(array, reference_array)
        assert_bitwise_equal(runs[0][2], draws)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_frames_outside_the_tolerance_are_clipped_alike(native_library, dimension):
    """A leg pushed past the walls (its origin moved outside the region):
    every frame holding a coordinate beyond the containment tolerance is
    clipped, a -0.0 coordinate kept, as the per-step clamp does."""
    runs = []
    for library in (native_library, None):
        model, rng = seeded_model(Case(dimension, 6, 10.0, 0.5, 4.0, 0, 0.0, 13))
        model._leg_origins[0] = -3.0
        model._leg_origins[1] = 12.5
        model.state.positions[2] = -0.0
        model.state.stationary_mask[2] = True
        with mock.patch.object(native, "load", return_value=library):
            runs.append((model.trajectory(30, rng), legs(model), rng.random(4)))
    (frames, state, draws), (reference, reference_state, reference_draws) = runs
    assert_bitwise_equal(frames, reference)
    for array, reference_array in zip(state, reference_state):
        assert_bitwise_equal(array, reference_array)
    assert_bitwise_equal(draws, reference_draws)
    assert frames.min() >= 0.0 and frames.max() <= 10.0
    assert np.signbit(frames[:, 2]).any()


def test_four_dimensions_keep_the_python_loop(native_library):
    rng = np.random.default_rng(1)
    region = Region(side=30.0, dimension=4)
    model = RandomWaypointModel(vmin=0.5, vmax=1.0, tpause=1)
    model.initialize(region.sample_uniform(5, rng), region, rng)
    with mock.patch.object(
        native.NativeLibrary, "waypoint_trajectory",
        side_effect=AssertionError("the C lane ran"),
    ), mock.patch.object(native, "load", return_value=native_library):
        frames = model.trajectory(20, rng)
    assert frames.shape == (20, 5, 4)


def test_the_c_lane_runs_where_it_can(native_library):
    model, rng = seeded_model(Case(2, 5, 30.0, 0.5, 2.0, 1, 0.0, 1))
    with mock.patch.object(
        native.NativeLibrary, "waypoint_trajectory", autospec=True,
        side_effect=native.NativeLibrary.waypoint_trajectory,
    ) as spy, mock.patch.object(native, "load", return_value=native_library):
        model.trajectory(20, rng)
    assert spy.call_count == 1


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda arrays: arrays.__setitem__(1, arrays[1].astype(np.float32)), "speeds"),
        (lambda arrays: arrays.__setitem__(2, arrays[2][::-1]), "pause"),
        (lambda arrays: arrays.__setitem__(6, arrays[6][:-1]), "elapsed"),
        (lambda arrays: arrays.pop(), "7 per-node arrays"),
    ],
    ids=["float32", "strided", "short", "missing"],
)
def test_the_c_lane_refuses_arrays_it_cannot_advance(native_library, change, message):
    """The C lane writes the model's arrays in place, so it takes no copy."""
    model, rng = seeded_model(Case(2, 4, 30.0, 0.5, 2.0, 1, 0.0, 1))
    arrays = legs(model)
    change(arrays)
    frames = np.zeros((3, 4, 2))
    with pytest.raises(ValueError, match=message):
        native_library.waypoint_trajectory(
            frames, tuple(arrays), np.zeros(4, dtype=bool), 30.0, 0.5, 1.0, 1, rng,
        )


def test_the_bit_generator_is_locked_while_the_c_lane_draws(native_library):
    model, rng = seeded_model(Case(2, 4, 30.0, 0.5, 2.0, 1, 0.0, 1))
    lock = rng.bit_generator.lock
    held = []

    def another_thread_acquires():
        acquired = lock.acquire(blocking=False)
        if acquired:
            lock.release()
        return acquired

    def record(*args):
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(another_thread_acquires()))
        thread.start()
        thread.join()
        held.append(not outcome[0])
        return 0

    with mock.patch.object(native_library, "_waypoint_trajectory", record):
        native_library.waypoint_trajectory(
            np.zeros((3, 4, 2)), tuple(legs(model)), np.zeros(4, dtype=bool),
            30.0, 0.5, 1.0, 1, rng,
        )
    assert held == [True]
    assert another_thread_acquires()
