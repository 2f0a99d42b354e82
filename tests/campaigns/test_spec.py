"""Tests for repro.campaigns.spec: loading and grid enumeration."""

import json

import pytest

from repro.campaigns.spec import CampaignSpec
from repro.exceptions import ConfigurationError

TOML_SPEC = """
name = "grid"
experiments = ["fig2", "fig7"]
scale = "smoke"

[overrides]
steps = 10

[matrix]
seed = [1, 2]
iterations = [2, 4, 8]
"""


class TestLoading:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(TOML_SPEC)
        spec = CampaignSpec.load(path)
        assert spec.name == "grid"
        assert spec.experiments == ("fig2", "fig7")
        assert spec.scale == "smoke"
        assert dict(spec.overrides) == {"steps": 10}
        assert dict(spec.matrix) == {"seed": (1, 2), "iterations": (2, 4, 8)}

    def test_load_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "name": "grid",
                    "experiments": ["fig2"],
                    "scale": "smoke",
                    "matrix": {"seed": [1, 2]},
                }
            )
        )
        spec = CampaignSpec.load(path)
        assert spec.scenario_count() == 2

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "nightly.toml"
        path.write_text('experiments = ["fig2"]\nscale = "smoke"\n')
        assert CampaignSpec.load(path).name == "nightly"

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("experiments: [fig2]")
        with pytest.raises(ConfigurationError):
            CampaignSpec.load(path)


class TestValidation:
    def test_requires_experiments(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", experiments=())

    def test_rejects_unknown_scale_fields(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="x", experiments=("fig2",), overrides=(("no_such_field", 1),)
            )

    def test_rejects_sweep_workers_as_unknown_scale_field(self):
        """The removed sweep worker count is no scale field: the width is
        the per-invocation ``campaign run --total-workers`` flag."""
        with pytest.raises(ConfigurationError) as error:
            CampaignSpec(
                name="x",
                experiments=("fig2",),
                matrix=(("sweep_workers", (1, 2)),),
            )
        assert "unknown scale field(s) ['sweep_workers']" in str(error.value)

    def test_rejects_backend_as_unknown_scale_field(self):
        """Scales no longer name an array backend, so a spec naming one
        is rejected like any other unknown scale field."""
        with pytest.raises(ConfigurationError, match="unknown scale field") as error:
            CampaignSpec(
                name="x", experiments=("fig2",), matrix=(("backend", ("numpy",)),)
            )
        assert "backend" in str(error.value)
        with pytest.raises(ConfigurationError, match="unknown scale field"):
            CampaignSpec(
                name="x", experiments=("fig2",), overrides=(("backend", "numpy"),)
            )

    def test_rejects_empty_matrix_values(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", experiments=("fig2",), matrix=(("seed", ()),))

    def test_rejects_an_empty_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            CampaignSpec(name="", experiments=("fig2",))

    @pytest.mark.parametrize(
        "document",
        [
            ["fig2"],
            {"name": "x", "experiments": "fig2"},
            {"name": "x", "experiments": ["fig2"], "overrides": ["steps", 10]},
        ],
        ids=["not-a-table", "experiments-not-a-list", "overrides-not-a-table"],
    )
    def test_rejects_malformed_documents(self, document):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(document)

    def test_rejects_unknown_spec_keys(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(
                {"name": "x", "experiments": ["fig2"], "sclae": "smoke"}
            )


class TestGrid:
    def spec(self):
        return CampaignSpec(
            name="grid",
            experiments=("fig2", "fig7"),
            scale="smoke",
            overrides=(("steps", 10),),
            matrix=(("seed", (1, 2)), ("iterations", (2, 4, 8))),
        )

    def test_scenario_count_matches_grid(self):
        spec = self.spec()
        assert spec.scenario_count() == 2 * 2 * 3
        assert len(spec.scenarios()) == spec.scenario_count()

    def test_scenarios_apply_overrides_and_cells(self):
        scenarios = self.spec().scenarios()
        first = scenarios[0]
        assert first.experiment_id == "fig2"
        assert first.scale.steps == 10
        assert first.scale.seed == 1
        assert first.scale.iterations == 2
        assert first.scenario_id == "fig2@seed=1,iterations=2"
        # The base preset's untouched fields survive.
        assert first.scale.parameter_points == 3

    def test_scenario_ids_unique_and_ordered(self):
        identifiers = [s.scenario_id for s in self.spec().scenarios()]
        assert len(set(identifiers)) == len(identifiers)
        assert identifiers[0].startswith("fig2")
        assert identifiers[-1].startswith("fig7")

    def test_matrixless_spec_has_one_cell_per_experiment(self):
        spec = CampaignSpec(name="x", experiments=("fig2",), scale="smoke")
        scenarios = spec.scenarios()
        assert len(scenarios) == 1
        assert scenarios[0].scenario_id == "fig2"
        assert scenarios[0].cell == ()

    def test_sides_override_from_lists(self, tmp_path):
        path = tmp_path / "sides.toml"
        path.write_text(
            'experiments = ["fig2"]\nscale = "smoke"\n'
            "[overrides]\nsides = [128.0, 512.0]\n"
        )
        spec = CampaignSpec.load(path)
        assert spec.scenarios()[0].scale.sides == (128.0, 512.0)

    def test_invalid_scale_value_surfaces_at_enumeration(self):
        spec = CampaignSpec(
            name="x", experiments=("fig2",), scale="smoke",
            matrix=(("iterations", (0,)),),
        )
        with pytest.raises(ConfigurationError):
            spec.scenarios()
