"""Tests for repro.experiments.registry."""

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

import pytest

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.campaigns.progress import TaskCompleted
from repro.exceptions import ConfigurationError
from repro.experiments.registry import (
    _REGISTRY,
    Experiment,
    ExperimentScale,
    get_experiment,
    list_experiments,
    scale_by_name,
    SCALES,
)
from repro.store import ResultStore


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
        with pytest.raises(ConfigurationError, match="stationary_iterations"):
            ExperimentScale(
                name="bad", sides=(10.0,), steps=1, iterations=1,
                stationary_iterations=0, parameter_points=2,
            )
        with pytest.raises(ConfigurationError, match="parameter_points"):
            ExperimentScale(
                name="bad", sides=(10.0,), steps=1, iterations=1,
                stationary_iterations=1, parameter_points=1,
            )

    def test_fields_describe_only_the_computation(self):
        # No execution field: the worker budget is a campaign run flag.
        assert [f.name for f in fields(ExperimentScale)] == [
            "name", "sides", "steps", "iterations", "stationary_iterations",
            "parameter_points", "seed",
        ]


class TestExperimentRun:
    """``Experiment.run`` measures every value in order, in this process."""

    def test_rows_and_series(self, serial_sweep):
        sweep = serial_sweep("x", [1.0, 2.0, 3.0], lambda x: {"square": x * x})
        assert sweep.parameter_values == [1.0, 2.0, 3.0]
        assert sweep.series("square") == [1.0, 4.0, 9.0]
        assert sweep.series_names() == ["square"]

    def test_multiple_series(self, serial_sweep):
        sweep = serial_sweep("x", [2.0], lambda x: {"double": 2 * x, "half": x / 2})
        assert set(sweep.series_names()) == {"double", "half"}
        assert sweep.rows[0]["x"] == 2.0

    def test_measure_called_in_order(self, serial_sweep):
        calls = []

        def measure(value):
            calls.append(value)
            return {"v": value}

        serial_sweep("p", [3, 1, 2], measure)
        assert calls == [3, 1, 2]

    def test_empty_sweep(self, serial_sweep):
        sweep = serial_sweep("x", [], lambda x: {"y": x})
        assert sweep.rows == []
        assert sweep.series_names() == []
        assert sweep.parameter_values == []


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

    def test_register_custom_experiment(self, monkeypatch):
        custom = Experiment(
            identifier="custom-test-exp",
            title="Custom",
            description="test only",
            paper_reference="none",
            sweep_measure=lambda scale: _double,
        )
        monkeypatch.setitem(_REGISTRY, custom.identifier, custom)
        assert get_experiment("custom-test-exp").title == "Custom"

    def test_experiment_requires_a_sweep_measure(self):
        with pytest.raises(TypeError, match="sweep_measure"):
            Experiment(
                identifier="no-measure",
                title="No measure",
                description="test only",
                paper_reference="none",
            )

    def test_list_is_sorted(self):
        identifiers = [experiment.identifier for experiment in list_experiments()]
        assert identifiers == sorted(identifiers)


def _double(value: float) -> Dict[str, float]:
    return {"double": 2.0 * value}


@dataclass(frozen=True)
class _BindableMeasure:
    checkpoint: Optional[object] = None

    def __call__(self, value: float) -> Dict[str, float]:
        return {"bound": float(self.checkpoint is not None)}

    def with_value_checkpoint(self, checkpoint) -> "_BindableMeasure":
        return replace(self, checkpoint=checkpoint)


def _experiment_measuring(measure) -> Experiment:
    return Experiment(
        identifier="measure-for-probe",
        title="probe",
        description="test only",
        paper_reference="none",
        sweep_measure=lambda scale: measure,
    )


class TestMeasureFor:
    def test_rebinds_a_checkpointable_measure(self):
        checkpoint = object()
        experiment = _experiment_measuring(_BindableMeasure())
        bound = experiment.measure_for(scale_by_name("smoke"), checkpoint)
        assert bound == _BindableMeasure(checkpoint=checkpoint)

    def test_returns_any_other_measure_unchanged(self):
        experiment = _experiment_measuring(_double)
        assert experiment.measure_for(scale_by_name("smoke"), object()) is _double


def _built_in_identifiers():
    """The package's own experiments, by the module of their measure."""
    return sorted(
        experiment.identifier
        for experiment in list_experiments()
        if getattr(
            experiment.sweep_measure, "func", experiment.sweep_measure
        ).__module__.startswith("repro.")
    )


class TestCampaignEqualsRun:
    """A campaign measures each value of an experiment as one task of the
    registered measure, so its rows are ``Experiment.run``'s bit for bit."""

    @pytest.mark.parametrize("identifier", _built_in_identifiers())
    def test_default_budget_campaign_equals_run(self, identifier, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "campaign-equals-run",
            "experiments": [identifier],
            "scale": "smoke",
            "overrides": {
                "sides": [16.0, 36.0],
                "steps": 3,
                "iterations": 2,
                "stationary_iterations": 5,
                "parameter_points": 2,
            },
        })
        (scenario,) = spec.scenarios()
        events = []
        result = CampaignRunner(spec, ResultStore(tmp_path / "store")).run(
            progress=events.append
        )
        sweep = result.sweeps[scenario.scenario_id]
        reference = get_experiment(identifier).run(scenario.scale)
        assert sweep.parameter_name == reference.parameter_name
        assert sweep.rows == reference.rows
        # One value task per row, in sweep order at the default budget.
        assert [
            event.value for event in events if isinstance(event, TaskCompleted)
        ] == reference.parameter_values
