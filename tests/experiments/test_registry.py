"""Tests for repro.experiments.registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    get_experiment,
    list_experiments,
    register_experiment,
    scale_by_name,
    SCALES,
)
from repro.simulation.sweep import SweepResult


class TestExperimentScale:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_scale_by_name(self):
        assert scale_by_name("smoke").name == "smoke"
        with pytest.raises(ConfigurationError):
            scale_by_name("gigantic")

    def test_paper_scale_matches_paper_parameters(self):
        paper = scale_by_name("paper")
        assert paper.steps == 10000
        assert paper.iterations == 50
        assert list(paper.sides) == [256.0, 1024.0, 4096.0, 16384.0]

    def test_smoke_is_smaller_than_default(self):
        smoke = scale_by_name("smoke")
        default = scale_by_name("default")
        assert smoke.steps < default.steps
        assert smoke.iterations <= default.iterations

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(
                name="bad", sides=(10.0,), steps=0, iterations=1,
                stationary_iterations=1, parameter_points=2,
            )
        with pytest.raises(ConfigurationError):
            ExperimentScale(
                name="bad", sides=(), steps=1, iterations=1,
                stationary_iterations=1, parameter_points=2,
            )


class TestSweepWorkersField:
    """``sweep_workers`` is the scale's one execution field."""

    def test_default_is_serial(self):
        for name in SCALES:
            assert scale_by_name(name).sweep_workers == 1

    def test_rejects_non_positive(self):
        smoke = scale_by_name("smoke")
        for count in (0, -2):
            with pytest.raises(ConfigurationError):
                smoke.with_sweep_workers(count)

    def test_with_sweep_workers_preserves_everything_else(self):
        smoke = scale_by_name("smoke")
        copy = smoke.with_sweep_workers(4)
        assert copy.sweep_workers == 4
        assert copy.with_sweep_workers(1) == smoke

    def test_execution_fields_name_only_existing_fields(self):
        from dataclasses import fields

        from repro.store.keys import EXECUTION_FIELDS

        assert EXECUTION_FIELDS == {"sweep_workers"}
        assert EXECUTION_FIELDS <= {field.name for field in fields(ExperimentScale)}

    def test_sweep_workers_never_enters_cache_keys(self):
        from repro.campaigns.runner import scenario_payload, scenario_sweep_key

        experiment = get_experiment("fig3")
        scale = scale_by_name("smoke")
        wide = scale.with_sweep_workers(8)
        assert scenario_sweep_key(experiment, wide) == scenario_sweep_key(
            experiment, scale
        )
        assert scenario_payload(experiment, wide) == scenario_payload(
            experiment, scale
        )


class TestRegistry:
    def test_all_figures_registered(self):
        identifiers = {experiment.identifier for experiment in list_experiments()}
        for figure in ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]:
            assert figure in identifiers
        assert "theorem5-1d" in identifiers
        assert "occupancy-domains" in identifiers
        assert "stationary-critical-range" in identifiers
        assert "energy-tradeoff" in identifiers

    def test_get_experiment(self):
        experiment = get_experiment("fig2")
        assert experiment.paper_reference == "Figure 2"

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_register_custom_experiment(self):
        def run(scale):
            return SweepResult(parameter_name="x", rows=[{"x": 1.0}])

        custom = Experiment(
            identifier="custom-test-exp",
            title="Custom",
            description="test only",
            paper_reference="none",
            run=run,
        )
        register_experiment(custom)
        assert get_experiment("custom-test-exp").title == "Custom"

    def test_list_is_sorted(self):
        identifiers = [experiment.identifier for experiment in list_experiments()]
        assert identifiers == sorted(identifiers)
