"""Tests for repro.experiments.registry."""

from dataclasses import dataclass, replace
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
