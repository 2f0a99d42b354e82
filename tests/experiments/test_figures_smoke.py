"""Smoke tests running every registered experiment at a tiny scale.

These tests validate the experiment plumbing (configuration, simulation,
threshold extraction, reporting) end to end; the quantitative checks of the
paper's claims live in tests/integration/ and in the benchmarks.
"""

import pytest

from repro.experiments.figures import measure_system_size, paper_node_count
from repro.experiments.registry import ExperimentScale, get_experiment

#: A scale even smaller than the "smoke" preset, for unit-test speed.
TINY = ExperimentScale(
    name="smoke",
    sides=(256.0,),
    steps=10,
    iterations=2,
    stationary_iterations=20,
    parameter_points=2,
    seed=7,
)


class TestPaperNodeCount:
    def test_sqrt_scaling(self):
        assert paper_node_count(256.0) == 16
        assert paper_node_count(1024.0) == 32
        assert paper_node_count(4096.0) == 64
        assert paper_node_count(16384.0) == 128

    def test_minimum_of_two(self):
        assert paper_node_count(1.0) == 2


class TestMeasureSystemSize:
    def test_row_contains_all_series(self):
        row = measure_system_size(256.0, "waypoint", TINY)
        for key in (
            "rstationary", "r100", "r90", "r10", "r0", "rl90", "rl75", "rl50",
            "r100/rstationary", "lcc_fraction@r90",
        ):
            assert key in row

    def test_threshold_ordering(self):
        row = measure_system_size(256.0, "drunkard", TINY)
        assert row["r0"] <= row["r10"] <= row["r90"] <= row["r100"]
        assert row["rl50"] <= row["rl75"] <= row["rl90"]

    def test_lcc_fraction_ordering(self):
        row = measure_system_size(256.0, "waypoint", TINY)
        assert row["lcc_fraction@r0"] <= row["lcc_fraction@r90"] + 1e-9
        assert 0.0 < row["lcc_fraction@r0"] <= 1.0

    def test_unsupported_model(self):
        with pytest.raises(ValueError):
            measure_system_size(256.0, "gauss-markov", TINY)


@pytest.mark.parametrize(
    "identifier",
    ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
     "stationary-critical-range", "energy-tradeoff", "theorem5-1d",
     "occupancy-domains"],
)
def test_experiment_runs_at_tiny_scale(identifier):
    experiment = get_experiment(identifier)
    sweep = experiment.run(TINY)
    assert sweep.rows, f"{identifier} produced no rows"
    for row in sweep.rows:
        for key, value in row.items():
            assert value == value, f"{identifier} produced NaN for {key}"  # not NaN


def test_figure7_ratio_decreases_with_pstationary():
    """The qualitative Figure 7 claim: more stationary nodes -> smaller r100."""
    experiment = get_experiment("fig7")
    scale = ExperimentScale(
        name="smoke",
        sides=(256.0,),
        steps=20,
        iterations=2,
        stationary_iterations=40,
        parameter_points=3,
        seed=11,
    )
    sweep = experiment.run(scale)
    ratios = sweep.series("r100/rstationary")
    # pstationary = 1 is the stationary case; its r100 cannot exceed the
    # all-mobile r100.
    assert ratios[-1] <= ratios[0] + 1e-9


class TestSweepWorkerEquivalence:
    """Sweep-level process fan-out must not change any experiment result."""

    SCALE = ExperimentScale(
        name="smoke",
        sides=(256.0, 324.0),
        steps=8,
        iterations=2,
        stationary_iterations=15,
        parameter_points=2,
        seed=13,
    )

    @pytest.mark.parametrize("identifier", ["fig3", "fig7"])
    def test_parallel_sweep_equals_serial(self, identifier):
        experiment = get_experiment(identifier)
        serial = experiment.run(self.SCALE)
        parallel = experiment.run(self.SCALE.with_sweep_workers(2))
        assert serial.rows == parallel.rows
