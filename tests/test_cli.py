"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        arguments = build_parser().parse_args(["list"])
        assert arguments.command == "list"

    def test_run_command_defaults(self):
        arguments = build_parser().parse_args(["run", "fig2"])
        assert arguments.experiment == "fig2"
        assert arguments.scale == "default"
        assert arguments.output is None

    def test_stationary_command(self):
        arguments = build_parser().parse_args(
            ["stationary", "--side", "100", "--nodes", "20"]
        )
        assert arguments.side == 100.0
        assert arguments.nodes == 20

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig2", "--backend", "numpy"],
            ["stationary", "--side", "100", "--nodes", "20", "--backend", "numpy"],
        ],
        ids=["run", "stationary"],
    )
    def test_there_is_no_backend_flag(self, argv, capsys):
        # The kernels always run on NumPy; the flag is not kept as a no-op.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "Figure 2" in output

    def test_stationary_prints_value(self, capsys):
        exit_code = main(
            ["stationary", "--side", "200", "--nodes", "15", "--iterations", "20",
             "--seed", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "rstationary" in output

    def test_run_smoke_with_output(self, capsys, tmp_path, monkeypatch):
        # Shrink the smoke preset further so the CLI test stays fast.
        from repro.experiments import registry

        tiny = registry.ExperimentScale(
            name="smoke",
            sides=(256.0,),
            steps=8,
            iterations=1,
            stationary_iterations=15,
            parameter_points=2,
            seed=5,
        )
        monkeypatch.setitem(registry.SCALES, "smoke", tiny)
        destination = tmp_path / "fig2.json"
        exit_code = main(["run", "fig2", "--scale", "smoke", "--output", str(destination)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        payload = json.loads(destination.read_text())
        assert payload["metadata"]["experiment"] == "fig2"
        assert payload["rows"]

    def test_run_unknown_experiment(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "fig99", "--scale", "smoke"])


TINY_CAMPAIGN = """
name = "cli-demo"
experiments = ["fig2"]
scale = "smoke"

[overrides]
sides = [256.0]
steps = 8
iterations = 1
stationary_iterations = 15
seed = 5
"""


class TestCampaignCli:
    def write_spec(self, tmp_path):
        path = tmp_path / "demo.toml"
        path.write_text(TINY_CAMPAIGN)
        return path

    def test_campaign_parser_defaults(self, tmp_path):
        arguments = build_parser().parse_args(["campaign", "run", "spec.toml"])
        assert arguments.campaign_command == "run"
        assert arguments.resume is True
        assert arguments.store == ".repro-store"
        arguments = build_parser().parse_args(
            ["campaign", "run", "spec.toml", "--no-resume", "--store", "s"]
        )
        assert arguments.resume is False
        assert arguments.store == "s"

    def test_campaign_run_status_clean(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"

        assert main(["campaign", "run", str(spec), "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "cli-demo" in output
        assert "computed 1 value(s)" in output

        # Status: the single scenario is complete.
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "1/1 scenario(s) complete" in capsys.readouterr().out

        # Re-run: pure cache hit, zero computed values.
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "cache hit" in output
        assert "0 value(s) computed" in output

        # Clean evicts the grid's entries (1 sweep + 1 row checkpoint).
        assert main(["campaign", "clean", str(spec), "--store", str(store)]) == 0
        assert "evicted 2" in capsys.readouterr().out
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "0/1 scenario(s) complete" in capsys.readouterr().out

    def test_campaign_run_output_dir(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"
        out_dir = tmp_path / "results"
        assert main([
            "campaign", "run", str(spec), "--store", str(store),
            "--quiet", "--output-dir", str(out_dir),
        ]) == 0
        saved = json.loads((out_dir / "fig2.json").read_text())
        assert saved["metadata"]["campaign"] == "cli-demo"
        assert saved["rows"]

    def test_campaign_gc(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--quiet"]) == 0
        capsys.readouterr()

        # A generous budget evicts nothing.
        assert main(["campaign", "gc", "--store", str(store),
                     "--max-bytes", "100000000"]) == 0
        assert "evicted 0" in capsys.readouterr().out

        # A 1-byte budget empties the store; the warm path then recomputes.
        assert main(["campaign", "gc", "--store", str(store),
                     "--max-bytes", "1"]) == 0
        output = capsys.readouterr().out
        assert "evicted 0" not in output and "evicted" in output
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "0/1 scenario(s) complete" in capsys.readouterr().out

        # Idempotent on an empty store.
        assert main(["campaign", "gc", "--store", str(store)]) == 0
        assert "scanned 0" in capsys.readouterr().out

    def test_campaign_gc_dry_run_reports_without_evicting(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--quiet"]) == 0
        capsys.readouterr()

        # Dry run against a 1-byte budget: predicts the evictions …
        assert main(["campaign", "gc", "--store", str(store),
                     "--max-bytes", "1", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "would evict" in output
        assert "would evict 0" not in output
        # … but the campaign is still complete.
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "1/1 scenario(s) complete" in capsys.readouterr().out

    def test_campaign_gc_scoped_to_campaign(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--quiet"]) == 0
        capsys.readouterr()

        # Scoping to an unknown campaign touches nothing.
        assert main(["campaign", "gc", "--store", str(store), "--max-bytes", "1",
                     "--campaign", "never-ran"]) == 0
        output = capsys.readouterr().out
        assert "campaign 'never-ran'" in output
        assert "scanned 0" in output
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "1/1 scenario(s) complete" in capsys.readouterr().out

        # Scoping to the real campaign evicts its entries.
        assert main(["campaign", "gc", "--store", str(store), "--max-bytes", "1",
                     "--campaign", "cli-demo"]) == 0
        output = capsys.readouterr().out
        assert "campaign 'cli-demo'" in output
        assert "evicted 0" not in output and "evicted" in output
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        assert "0/1 scenario(s) complete" in capsys.readouterr().out


class TestCampaignReport:
    """``campaign run`` and ``campaign serve`` end with one printed report."""

    @staticmethod
    def quarantined_result():
        from repro.campaigns.runner import CampaignResult, ScenarioOutcome
        from repro.campaigns import CampaignSpec
        from repro.simulation.sweep import SweepResult

        spec = CampaignSpec(name="cli-demo", experiments=("fig2", "fig3"))
        done, poisoned = spec.scenarios()
        return CampaignResult(
            spec=spec,
            outcomes=[
                ScenarioOutcome(
                    scenario=done,
                    sweep=SweepResult("l", [{"l": 256.0, "r100": 1.5}]),
                    cache_hit=False,
                    computed_values=1,
                ),
                ScenarioOutcome(
                    scenario=poisoned,
                    sweep=None,
                    cache_hit=False,
                    quarantined_values=1,
                ),
            ],
        )

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_quiet_still_names_a_quarantined_scenario(
        self, command, capsys, tmp_path, monkeypatch
    ):
        import repro.distributed
        from repro.campaigns import CampaignRunner

        result = self.quarantined_result()
        if command == "run":
            monkeypatch.setattr(
                CampaignRunner, "run", lambda runner, **options: result
            )
        else:
            monkeypatch.setattr(
                repro.distributed,
                "serve_campaign",
                lambda *arguments, **options: result,
            )
        spec = tmp_path / "demo.toml"
        spec.write_text(TINY_CAMPAIGN)
        assert main(["campaign", command, str(spec), "--store",
                     str(tmp_path / "store"), "--quiet"]) == 1
        output = capsys.readouterr().out
        assert "1 value(s) computed. WARNING: 1 task(s) quarantined" in output
        assert "\nfig3: no complete sweep (1 quarantined task(s))" in output
        assert "(computed)" not in output  # --quiet prints no table


def _tiny_smoke(monkeypatch):
    """Shrink the smoke preset so a CLI run takes well under a second."""
    from repro.experiments import registry

    tiny = registry.ExperimentScale(
        name="smoke",
        sides=(256.0, 324.0),
        steps=8,
        iterations=1,
        stationary_iterations=15,
        parameter_points=2,
        seed=5,
    )
    monkeypatch.setitem(registry.SCALES, "smoke", tiny)


class TestExecutionFlags:
    """``--total-workers`` is the one width flag, and only ``campaign run``
    has it; ``run`` is the in-process reference.  The removed per-level
    flags no longer parse."""

    def test_total_workers_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["campaign", "run", "spec.toml"]).total_workers == 1
        assert parser.parse_args(
            ["campaign", "run", "spec.toml", "--total-workers", "5"]
        ).total_workers == 5

    def test_run_has_no_width_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig2", "--total-workers", "2"])
        assert excinfo.value.code == 2
        assert "--total-workers" in capsys.readouterr().err

    @pytest.mark.parametrize("identifier", ["fig2", "fig7"])
    def test_campaign_run_with_total_workers_matches_run(
        self, identifier, capsys, monkeypatch, tmp_path
    ):
        _tiny_smoke(monkeypatch)
        reference = tmp_path / "run.json"
        assert main(["run", identifier, "--scale", "smoke",
                     "--output", str(reference)]) == 0
        spec = tmp_path / "wide.toml"
        spec.write_text(
            f'name = "wide"\nexperiments = ["{identifier}"]\nscale = "smoke"\n'
        )
        assert main(["campaign", "run", str(spec), "--store",
                     str(tmp_path / "store"), "--total-workers", "2",
                     "--output-dir", str(tmp_path / "wide")]) == 0
        capsys.readouterr()
        wide = json.loads((tmp_path / "wide" / f"{identifier}.json").read_text())
        assert wide["rows"] == json.loads(reference.read_text())["rows"]

    @pytest.mark.parametrize(
        "arguments",
        [
            ["run", "fig2", "--workers", "2"],
            ["run", "fig2", "--sweep-workers", "2"],
            ["run", "fig2", "--shard-steps", "4"],
            ["run", "fig2", "--transport", "shm"],
            ["campaign", "run", "spec.toml", "--workers", "2"],
            ["campaign", "run", "spec.toml", "--sweep-workers", "2"],
            ["stationary", "--side", "100", "--nodes", "20", "--workers", "2"],
        ],
        ids=lambda arguments: f"{arguments[0]}{arguments[-2]}",
    )
    def test_removed_width_flags_are_rejected(self, arguments, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(arguments)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arguments",
        [
            ["campaign", "work", "--server", "http://h:1", "--object-cache", "d"],
            ["campaign", "work", "--server", "http://h:1",
             "--object-cache-bytes", "1024"],
        ],
        ids=lambda arguments: arguments[-2],
    )
    def test_removed_object_cache_flags_are_rejected(self, arguments, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(arguments)
        assert "unrecognized arguments" in capsys.readouterr().err
