"""Tests for repro.connectivity.metrics."""

import networkx
import numpy as np
import pytest

from repro.connectivity.critical_range import critical_range
from repro.connectivity.metrics import is_placement_connected, observe_placement
from repro.simulation.engine import frame_statistics_columns


class TestObservePlacement:
    def test_connected_cluster(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        observation = observe_placement(points, 1.5)
        assert observation.connected
        assert observation.largest_component_size == 3
        assert observation.component_count == 1
        assert observation.largest_component_fraction == 1.0

    def test_disconnected(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        observation = observe_placement(points, 1.5)
        assert not observation.connected
        assert observation.largest_component_size == 2
        assert observation.component_count == 2
        assert observation.largest_component_fraction == pytest.approx(2 / 3)

    def test_zero_range_all_isolated(self, small_placement):
        observation = observe_placement(small_placement, 0.0)
        assert observation.largest_component_size == 1
        assert observation.component_count == small_placement.shape[0]

    def test_empty_placement(self):
        observation = observe_placement(np.empty((0, 2)), 1.0)
        assert observation.connected
        assert observation.largest_component_fraction == 0.0

    def test_records_range(self, small_placement):
        assert observe_placement(small_placement, 7.5).transmitting_range == 7.5


class TestPlacementPredicates:
    def test_is_placement_connected_monotone(self, small_placement):
        r_star = critical_range(small_placement)
        assert is_placement_connected(small_placement, r_star)
        assert is_placement_connected(small_placement, r_star * 1.5)
        assert not is_placement_connected(small_placement, r_star * 0.99)

    def test_largest_fraction_increases_with_range(self, small_placement):
        fractions = [
            observe_placement(small_placement, r).largest_component_fraction
            for r in (0.0, 10.0, 30.0, 200.0)
        ]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestFrameColumnsAgainstObservations:
    def test_connected_share_is_the_mtrm_fraction(self):
        # The fraction the MTRM problem constrains, read off the columns.
        connected = np.array([[0.0, 0.0], [1.0, 0.0]])
        disconnected = np.array([[0.0, 0.0], [50.0, 0.0]])
        frames = [connected, disconnected, connected, connected]
        columns = frame_statistics_columns(np.stack(frames))
        flags = columns.connected_at(2.0)
        assert flags.tolist() == [observe_placement(f, 2.0).connected for f in frames]
        assert flags.mean() == pytest.approx(0.75)


class TestObservePlacementAgainstNetworkx:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_observation_equals_the_networkx_graph(self, rng, dimension):
        points = rng.uniform(0.0, 100.0, size=(40, dimension))
        r_star = critical_range(points)
        for radius in (0.3 * r_star, 0.7 * r_star, 1.2 * r_star):
            reference = networkx.Graph()
            reference.add_nodes_from(range(40))
            reference.add_edges_from(
                (u, v)
                for u in range(40)
                for v in range(u + 1, 40)
                if np.linalg.norm(points[u] - points[v]) <= radius
            )
            components = list(networkx.connected_components(reference))
            observation = observe_placement(points, radius)
            assert observation.connected == networkx.is_connected(reference)
            assert observation.component_count == len(components)
            assert observation.largest_component_size == max(map(len, components))
