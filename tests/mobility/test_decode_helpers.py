"""The array helpers the vectorized trajectories are built from.

Each helper turns a block of random draws (or a leg's kinematics) into
positions with plain NumPy arithmetic, and is checked against its
definition:

* the waypoint model's :func:`_steps_to_arrival` against a step-by-step
  search with the per-step arrival test;
* the drunkard model's ``_decode_block``: moves land in the step disk,
  the pause coin decides who moves, and decoding a whole batch of steps
  equals decoding each step alone, bit for bit (what makes its
  ``trajectory()`` equal to stepping);
* the random-direction model's ``_random_directions``: unit vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.region import Region
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.waypoint import _DISTANT_ARRIVAL, _steps_to_arrival


def arrival_by_stepping(speed, elapsed, length):
    """Smallest ``j >= 1`` with ``speed * (elapsed + j) >= length``."""
    attempts = 1
    while speed * float(elapsed + attempts) < length:
        attempts += 1
    return attempts


def check_arrivals(speeds, elapsed, lengths):
    speeds = np.asarray(speeds, dtype=np.float64)
    elapsed = np.asarray(elapsed, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.float64)
    observed = _steps_to_arrival(speeds, elapsed, lengths)
    assert observed.dtype == np.int64
    expected = [
        arrival_by_stepping(s, e, l)
        for s, e, l in zip(speeds.tolist(), elapsed.tolist(), lengths.tolist())
    ]
    assert observed.tolist() == expected


class TestStepsToArrival:
    @pytest.mark.parametrize(
        "speeds, elapsed, lengths",
        [
            # Lengths near float multiples of the speed: 0.1 * 3 sits just
            # above 0.3, and the closed form's division lands a step long.
            ([0.1] * 6, [0] * 6, [0.3, 0.7, 1.0, 2.9, 0.1 * 3, 0.1 * 7]),
            # One ulp past 131 and 137 steps of 1/97: the estimate is short.
            ([1 / 97] * 2, [0] * 2, [1.3505154639175259, 1.4123711340206186]),
            ([0.7, 1.3, 2.5, 0.01], [0] * 4, [10.0, 10.0, 10.0, 10.0]),
            ([0.5, 0.5, 0.5], [3, 10, 19], [10.0, 10.0, 10.0]),
            ([1.0, 2.0, 0.25], [5, 7, 100], [1.0, 3.0, 2.0]),
            ([1.0, 0.3, 5.0], [0, 4, 9], [0.0, 0.0, 0.0]),
        ],
        ids=[
            "float-multiples",
            "estimate-short",
            "fractional",
            "part-way",
            "already-arrived",
            "zero-length",
        ],
    )
    def test_equals_stepping_until_arrival(self, speeds, elapsed, lengths):
        check_arrivals(speeds, elapsed, lengths)

    @settings(max_examples=60, deadline=None)
    @given(
        legs=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.0, max_value=200.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_equals_stepping_for_any_leg(self, legs):
        speeds, elapsed, lengths = zip(*legs)
        check_arrivals(speeds, elapsed, lengths)

    def test_degenerately_slow_legs_are_clamped_beyond_any_horizon(self):
        observed = _steps_to_arrival(
            np.array([1e-300, 1.0]), np.zeros(2, dtype=np.int64), np.array([1.0, 2.5])
        )
        assert observed.tolist() == [_DISTANT_ARRIVAL, 3]


def drunkard_in(dimension, nodes=6, ppause=0.3, step_radius=5.0):
    model = DrunkardModel(step_radius=step_radius, ppause=ppause)
    region = Region(side=100.0, dimension=dimension)
    model.initialize(np.full((nodes, dimension), 50.0), region, np.random.default_rng(0))
    return model


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
class TestDrunkardDecodeBlock:
    def test_moves_land_in_the_step_disk(self, dimension):
        model = drunkard_in(dimension)
        width = model._block_width(dimension)
        block = np.random.default_rng(dimension).random((40, 6, width))
        moving, offsets = model._decode_block(block)
        assert moving.shape == (40, 6)
        assert offsets.shape == (40, 6, dimension)
        assert np.array_equal(moving, block[..., 0] >= model.ppause)
        norms = np.sqrt(np.sum(offsets * offsets, axis=-1))
        assert (norms <= model.step_radius * (1.0 + 1e-12)).all()
        assert norms.max() > 0.5 * model.step_radius

    def test_a_batch_decodes_like_its_steps(self, dimension):
        model = drunkard_in(dimension)
        width = model._block_width(dimension)
        block = np.random.default_rng(10 + dimension).random((12, 6, width))
        moving, offsets = model._decode_block(block)
        for step in range(block.shape[0]):
            step_moving, step_offsets = model._decode_block(block[step])
            assert np.array_equal(step_moving, moving[step])
            assert step_offsets.tobytes() == offsets[step].tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_random_directions_are_unit_vectors(dimension):
    directions = RandomDirectionModel._random_directions(
        200, dimension, np.random.default_rng(dimension)
    )
    assert directions.shape == (200, dimension)
    norms = np.sqrt(np.sum(directions * directions, axis=1))
    assert np.allclose(norms, 1.0, rtol=0.0, atol=1e-12)
    if dimension == 1:
        assert set(directions[:, 0].tolist()) == {-1.0, 1.0}
