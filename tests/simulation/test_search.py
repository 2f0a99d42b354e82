"""Tests for repro.simulation.search."""

import pytest

from repro.exceptions import SearchError
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import collect_frame_statistics
from repro.simulation.search import (
    average_component_fraction_at_range,
    estimate_component_thresholds,
    estimate_component_thresholds_from_statistics,
    estimate_thresholds,
    estimate_thresholds_from_statistics,
)


def mobile_config(seed=23, steps=12, iterations=3):
    return SimulationConfig(
        network=NetworkConfig(node_count=12, side=100.0, dimension=2),
        mobility=MobilitySpec.paper_drunkard(100.0),
        steps=steps,
        iterations=iterations,
        seed=seed,
    )


class TestEstimateThresholds:
    def test_ordering(self):
        thresholds = estimate_thresholds(mobile_config())
        assert thresholds.r0 <= thresholds.r10 <= thresholds.r90 <= thresholds.r100

    def test_reproducible(self):
        a = estimate_thresholds(mobile_config(seed=9))
        b = estimate_thresholds(mobile_config(seed=9))
        assert a == b

    def test_from_statistics_requires_data(self):
        with pytest.raises(SearchError):
            estimate_thresholds_from_statistics([])

    def test_thresholds_are_averages_of_per_iteration_values(self):
        from repro.simulation.metrics import (
            range_for_connectivity_fraction,
            range_for_no_connectivity,
        )

        config = mobile_config()
        statistics = collect_frame_statistics(config)
        thresholds = estimate_thresholds_from_statistics(statistics)
        per_iteration_r100 = [
            range_for_connectivity_fraction(frames, 1.0) for frames in statistics
        ]
        per_iteration_r0 = [range_for_no_connectivity(frames) for frames in statistics]
        assert thresholds.r100 == pytest.approx(
            sum(per_iteration_r100) / len(per_iteration_r100)
        )
        assert thresholds.r0 == pytest.approx(
            sum(per_iteration_r0) / len(per_iteration_r0)
        )


class TestComponentThresholds:
    def test_ordering(self):
        thresholds = estimate_component_thresholds(mobile_config())
        assert thresholds.rl50 <= thresholds.rl75 <= thresholds.rl90

    def test_component_thresholds_below_r100(self):
        config = mobile_config()
        statistics = collect_frame_statistics(config)
        connectivity = estimate_thresholds_from_statistics(statistics)
        components = estimate_component_thresholds_from_statistics(statistics)
        assert components.rl90 <= connectivity.r100 + 1e-9

    def test_from_statistics_requires_data(self):
        with pytest.raises(SearchError):
            estimate_component_thresholds_from_statistics([])


@pytest.mark.parametrize(
    "estimate",
    [
        estimate_thresholds_from_statistics,
        estimate_component_thresholds_from_statistics,
    ],
)
def test_estimators_take_exactly_three_fractions(estimate):
    statistics = [FrameStatisticsColumns.from_frames([])]
    with pytest.raises(SearchError, match="exactly three"):
        estimate(statistics, fractions=(0.9, 0.5))


class TestAverageComponentFraction:
    def test_at_large_range_is_one(self):
        statistics = collect_frame_statistics(mobile_config())
        assert average_component_fraction_at_range(statistics, 1000.0) == pytest.approx(1.0)

    def test_monotone_in_range(self):
        statistics = collect_frame_statistics(mobile_config())
        values = [
            average_component_fraction_at_range(statistics, r) for r in (0, 20, 50, 150)
        ]
        assert values == sorted(values)
