"""The drunkard walk's two lanes agree bit for bit.

:meth:`repro.mobility.drunkard.DrunkardModel.trajectory` decodes its
uniform block and walks in C (``repro_drunkard_walk`` in
``connectivity/native.c``) when the native library loads and the
network has one or two dimensions, and otherwise in ``_decode_block``
and its NumPy loop, the parity reference; three dimensions always take
the NumPy lane, whose Box–Muller decode needs NumPy's own ``log``.
Both lanes must leave the same frames, final positions and random
stream, bit for bit, over every regime the walk can meet: one to three
dimensions, sides from 1e-300 to 1e6 and near 1e300, step radii up to
five sides (so one step can fold several times), pauses and stationary
nodes at 0, 0.3 and 1, and starts exactly on the walls.  A spy on the
NumPy loop's reflection keeps the property from passing vacuously:
across the examples, reflections fire, multi-fold ones among them.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.connectivity import native
from repro.geometry.region import Region
from repro.mobility.drunkard import DrunkardModel


class Walk(NamedTuple):
    dimension: int
    side: float
    radius_in_sides: float
    ppause: float
    pstationary: float
    node_count: int
    steps: int
    seed: int
    #: Per coordinate, row-major: ``None`` keeps the uniform start, 0.0 and
    #: 1.0 pin it to the wall at 0 or at ``side``.
    walls: Tuple


@st.composite
def walks(draw) -> Walk:
    dimension = draw(st.integers(min_value=1, max_value=3))
    node_count = draw(st.integers(min_value=1, max_value=12))
    return Walk(
        dimension=dimension,
        side=draw(
            st.one_of(
                st.floats(min_value=1e-3, max_value=1e6),
                st.floats(min_value=1e-300, max_value=1e-290),
                st.floats(min_value=1e299, max_value=1e300),
            )
        ),
        radius_in_sides=draw(st.floats(min_value=0.01, max_value=5.0)),
        ppause=draw(st.sampled_from([0.0, 0.3, 1.0])),
        pstationary=draw(st.sampled_from([0.0, 0.3, 1.0])),
        node_count=node_count,
        steps=draw(st.integers(min_value=2, max_value=30)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        walls=tuple(
            draw(
                st.lists(
                    st.sampled_from([None, 0.0, 1.0]),
                    min_size=node_count * dimension,
                    max_size=node_count * dimension,
                )
            )
        ),
    )


def walk(case: Walk, library):
    """Frames, final positions and the next draws of one seeded walk, with
    :func:`repro.connectivity.native.load` returning ``library``."""
    region = Region(side=case.side, dimension=case.dimension)
    rng = np.random.default_rng(case.seed)
    start = region.sample_uniform(case.node_count, rng).reshape(-1)
    for index, wall in enumerate(case.walls):
        if wall is not None:
            start[index] = wall * case.side
    model = DrunkardModel(
        step_radius=case.radius_in_sides * case.side,
        ppause=case.ppause,
        pstationary=case.pstationary,
    )
    model.initialize(start.reshape(case.node_count, case.dimension), region, rng)
    with mock.patch.object(native, "load", return_value=library):
        frames = model.trajectory(case.steps, rng)
    return frames, model.state.positions, rng.random(4)


def test_the_c_walk_equals_the_numpy_loop(native_library):
    reflections = []
    reflect = Region.reflect

    def spy(region, positions):
        points = np.asarray(positions)
        reflections.append(
            bool(((points < -region.side) | (points > 2.0 * region.side)).any())
        )
        return reflect(region, positions)

    @settings(max_examples=150, deadline=None)
    @given(case=walks())
    @example(case=Walk(2, 100.0, 5.0, 0.0, 0.0, 8, 20, 1, (None,) * 16))
    @example(case=Walk(3, 1e300, 4.0, 0.3, 0.3, 5, 12, 2, (0.0, 1.0) * 7 + (None,)))
    @example(case=Walk(1, 1e-3, 2.5, 0.0, 1.0, 6, 9, 3, (0.0, 1.0, None) * 2))
    def check(case):
        frames, positions, draws = walk(case, native_library)
        with mock.patch.object(Region, "reflect", spy):
            reference = walk(case, None)
        for observed, expected in zip((frames, positions, draws), reference):
            assert observed.shape == expected.shape
            assert np.array_equal(observed.view(np.uint64), expected.view(np.uint64))

    check()
    assert reflections, "no example reflected a node"
    assert any(reflections), "no example folded a node more than once"


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_the_c_walk_serves_one_and_two_dimensions(native_library, dimension):
    case = Walk(dimension, 50.0, 0.1, 0.3, 0.3, 6, 9, 4, (None,) * 6 * dimension)
    with mock.patch.object(
        native.NativeLibrary, "drunkard_walk", autospec=True,
        side_effect=native.NativeLibrary.drunkard_walk,
    ) as spy:
        walk(case, native_library)
    assert spy.call_count == (1 if dimension <= 2 else 0)


@pytest.mark.parametrize(
    "frames, uniforms, message",
    [
        (np.zeros((3, 2, 4)).transpose(0, 2, 1), np.zeros((2, 4, 3)), "C-contiguous float64"),
        (np.zeros((3, 4, 2), dtype=np.float32), np.zeros((2, 4, 3)), "C-contiguous float64"),
        (np.zeros((4, 4, 2)), np.zeros((2, 4, 3)), "uniforms"),
        (np.zeros((3, 4, 2)), np.zeros((2, 4, 4)), "uniforms"),
        (np.zeros((3, 4, 3)), np.zeros((2, 4, 3)), "1 or 2"),
    ],
    ids=["strided", "float32", "too-many-frames", "too-wide-block", "three-dimensions"],
)
def test_the_walk_refuses_arrays_it_cannot_fill(native_library, frames, uniforms, message):
    """The C walk writes ``frames`` in place, so it takes no copy of them."""
    with pytest.raises(ValueError, match=message):
        native_library.drunkard_walk(
            frames, uniforms, np.zeros(4, dtype=bool), 0.3, 0.1, 1.0
        )
