"""Integration tests exercising the full pipeline.

These tests reproduce, at a reduced scale, the qualitative claims of the
paper that the benchmarks measure at full scale:

* the thresholds are ordered ``r0 <= r10 <= r90 <= r100`` and sit in a
  sensible relation to ``rstationary``;
* ``r90`` is substantially below ``r100`` (the energy trade-off);
* at ``r90`` and ``r10`` the largest connected component still holds most
  of the nodes;
* about half of the nodes being stationary makes the network behave like a
  stationary one (the Figure 7 threshold phenomenon);
* the two mobility models give similar results (the paper's "models do not
  matter much" conclusion);
* in 1-D, the empirical critical product ``r n`` tracks ``l log l``.
"""

import math

import pytest

from repro.analysis.bounds_1d import critical_product_1d
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.metrics import range_for_connectivity_fraction
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import (
    collect_frame_statistics,
    stationary_critical_range,
)
from repro.simulation.search import (
    average_component_fraction_at_range,
    estimate_component_thresholds_from_statistics,
    estimate_thresholds_from_statistics,
)

SIDE = 1024.0
NODES = 32
STEPS = 60
ITERATIONS = 3
SEED = 2002


@pytest.fixture(scope="module")
def waypoint_statistics():
    config = SimulationConfig(
        network=NetworkConfig(node_count=NODES, side=SIDE, dimension=2),
        mobility=MobilitySpec.paper_waypoint(SIDE),
        steps=STEPS,
        iterations=ITERATIONS,
        seed=SEED,
    )
    return collect_frame_statistics(config)


@pytest.fixture(scope="module")
def drunkard_statistics():
    config = SimulationConfig(
        network=NetworkConfig(node_count=NODES, side=SIDE, dimension=2),
        mobility=MobilitySpec.paper_drunkard(SIDE),
        steps=STEPS,
        iterations=ITERATIONS,
        seed=SEED,
    )
    return collect_frame_statistics(config)


@pytest.fixture(scope="module")
def rstationary():
    return stationary_critical_range(
        node_count=NODES, side=SIDE, dimension=2, iterations=150, seed=SEED,
        confidence=0.99,
    )


class TestThresholdStructure:
    def test_ordering(self, waypoint_statistics):
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        assert thresholds.r0 <= thresholds.r10 <= thresholds.r90 <= thresholds.r100

    def test_relaxed_thresholds_below_r100(self, waypoint_statistics):
        """The paper reports r90 about 35-40% below r100 and r10 about
        55-60% below it.  The size of the gap grows with the number of
        mobility steps (r100 is a maximum over steps); at this reduced scale
        we require a strict reduction for r90 and a substantial one for r10."""
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        assert thresholds.r90 < thresholds.r100
        assert thresholds.r10 <= 0.9 * thresholds.r100

    def test_r100_close_to_rstationary(self, waypoint_statistics, rstationary):
        """r100 should be of the same order as rstationary (the paper finds
        ratios between roughly 0.9 and 1.3 depending on l)."""
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        ratio = thresholds.r100 / rstationary
        assert 0.5 < ratio < 2.0

    def test_component_thresholds_below_connectivity_thresholds(
        self, waypoint_statistics
    ):
        connectivity = estimate_thresholds_from_statistics(waypoint_statistics)
        components = estimate_component_thresholds_from_statistics(waypoint_statistics)
        assert components.rl50 <= components.rl75 <= components.rl90
        assert components.rl90 <= connectivity.r100


class TestLargestComponentClaims:
    def test_large_component_survives_at_r90(self, waypoint_statistics):
        """Figure 4: at r90 the largest component holds nearly all nodes."""
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        fraction = average_component_fraction_at_range(
            waypoint_statistics, thresholds.r90
        )
        assert fraction > 0.9

    def test_large_component_survives_at_r10(self, waypoint_statistics):
        """Figure 4: even at r10 the largest component holds most nodes."""
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        fraction = average_component_fraction_at_range(
            waypoint_statistics, thresholds.r10
        )
        assert fraction > 0.7

    def test_component_collapses_at_r0(self, waypoint_statistics):
        """At r0 the component is clearly smaller than at r90."""
        thresholds = estimate_thresholds_from_statistics(waypoint_statistics)
        at_r90 = average_component_fraction_at_range(waypoint_statistics, thresholds.r90)
        at_r0 = average_component_fraction_at_range(waypoint_statistics, thresholds.r0)
        assert at_r0 < at_r90


class TestMobilityModelComparison:
    def test_models_give_similar_thresholds(
        self, waypoint_statistics, drunkard_statistics
    ):
        """The paper's headline observation: the two models behave alike."""
        waypoint = estimate_thresholds_from_statistics(waypoint_statistics)
        drunkard = estimate_thresholds_from_statistics(drunkard_statistics)
        assert waypoint.r100 == pytest.approx(drunkard.r100, rel=0.4)
        assert waypoint.r90 == pytest.approx(drunkard.r90, rel=0.4)


class TestStationaryFractionThreshold:
    def test_half_stationary_behaves_like_stationary(self, rstationary):
        """Figure 7: with pstationary >= 0.5-0.6 the network is essentially
        stationary; with pstationary = 0 it needs a larger r100."""

        def r100_at(pstationary: float) -> float:
            config = SimulationConfig(
                network=NetworkConfig(node_count=NODES, side=SIDE, dimension=2),
                mobility=MobilitySpec.paper_waypoint(SIDE, pstationary=pstationary),
                steps=40,
                iterations=3,
                seed=SEED,
            )
            statistics = collect_frame_statistics(config)
            return estimate_thresholds_from_statistics(statistics).r100

    # The fully mobile network needs at least as much range as the mostly
    # stationary one.
        assert r100_at(0.0) >= r100_at(0.8) * 0.95


class TestTheorem5Scaling:
    def test_empirical_product_tracks_l_log_l(self):
        """The empirical r99 * n stays within a constant factor of l log l
        as l grows (Theorem 5)."""
        ratios = []
        for side in (200.0, 800.0, 3200.0):
            n = max(4, int(side // 4))
            config = SimulationConfig(
                network=NetworkConfig(node_count=n, side=side, dimension=1),
                mobility=MobilitySpec.stationary(),
                steps=1,
                iterations=80,
                seed=SEED,
            )
            statistics = collect_frame_statistics(config)
            pooled = FrameStatisticsColumns.concatenate(statistics)
            r99 = range_for_connectivity_fraction(pooled, 0.99)
            ratios.append(r99 * n / critical_product_1d(side))
        # The ratio is bounded and does not blow up or vanish with l.
        assert all(0.2 < ratio < 5.0 for ratio in ratios)
        assert max(ratios) / min(ratios) < 3.0
