"""Property-based tests for the mobility models (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.region import Region
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.simulation.config import MobilitySpec


def build_model(name, side):
    if name == "waypoint":
        return RandomWaypointModel(vmin=0.1, vmax=max(0.05 * side, 0.2), tpause=3)
    if name == "drunkard":
        return DrunkardModel(step_radius=max(0.05 * side, 0.2), ppause=0.2)
    if name == "waypoint-paper":
        return MobilitySpec.paper_waypoint(side).create()
    if name == "waypoint-fastest":
        # The last value of Figure 9's sweep.
        return MobilitySpec.paper_waypoint(side, vmax=0.5 * side).create()
    return MobilitySpec.paper_drunkard(side).create()


MODEL_NAMES = [
    "waypoint", "drunkard", "waypoint-paper", "waypoint-fastest", "drunkard-paper",
]


class TestContainmentInvariant:
    @given(
        st.sampled_from(MODEL_NAMES),
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=10.0, max_value=500.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_positions_always_inside_region(self, name, node_count, side, seed):
        region = Region.square(side)
        rng = np.random.default_rng(seed)
        model = build_model(name, side)
        model.initialize(region.sample_uniform(node_count, rng), region, rng)
        for _ in range(15):
            assert region.contains(model.step(rng))

    @given(
        st.sampled_from(MODEL_NAMES),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_node_count_preserved(self, name, node_count, seed):
        region = Region.square(100.0)
        rng = np.random.default_rng(seed)
        model = build_model(name, 100.0)
        model.initialize(region.sample_uniform(node_count, rng), region, rng)
        for _ in range(5):
            assert model.step(rng).shape == (node_count, 2)


class TestDeterminismInvariant:
    @given(st.sampled_from(MODEL_NAMES), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_trajectory(self, name, seed):
        region = Region.square(50.0)

        def trajectory():
            rng = np.random.default_rng(seed)
            model = build_model(name, 50.0)
            model.initialize(region.sample_uniform(6, rng), region, rng)
            return model.run(10, rng)

        assert np.allclose(trajectory(), trajectory())


class TestStationaryMaskInvariant:
    @given(
        st.sampled_from(["waypoint", "drunkard"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_stationary_nodes_never_move(self, name, pstationary, seed):
        region = Region.square(80.0)
        rng = np.random.default_rng(seed)
        if name == "waypoint":
            model = RandomWaypointModel(vmin=0.5, vmax=4.0, pstationary=pstationary)
        else:
            model = DrunkardModel(step_radius=4.0, pstationary=pstationary)
        initial = model.initialize(region.sample_uniform(12, rng), region, rng)
        mask = model.state.stationary_mask.copy()
        final = model.run(8, rng)
        assert np.allclose(final[mask], initial[mask])
