"""Tests of the top-level public API (`import repro`)."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent

#: Modules deleted with the array-backend seam and the extension packages
#: nothing reached; their names must not come back as stale shims.
REMOVED_MODULES = [
    "repro.availability",
    "repro.backend",
    "repro.dissemination",
    "repro.distributed.object_cache",
    "repro.geometry.kdtree",
    "repro.propagation",
    "repro.stats.series",
    "repro.topology",
    "repro.visualization",
]


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists {name} but it is missing"

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_key_entry_points_are_callable_or_classes(self):
        for name in (
            "critical_range",
            "build_communication_graph",
            "estimate_thresholds",
            "stationary_critical_range",
            "uniform_placement",
        ):
            assert callable(getattr(repro, name))
        for name in ("Region", "SimulationConfig", "RandomWaypointModel", "EnergyModel"):
            assert inspect.isclass(getattr(repro, name))

    def test_exceptions_form_a_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.SearchError, repro.ReproError)
        assert issubclass(repro.AnalysisError, repro.ReproError)

    def test_quickstart_docstring_flow(self):
        """The flow shown in the package docstring works as written."""
        region = repro.Region.square(200.0)
        points = repro.uniform_placement(20, region, repro.make_rng(7))
        r_star = repro.critical_range(points)
        assert r_star > 0.0
        config = repro.SimulationConfig.paper_waypoint(
            side=200.0, steps=10, iterations=2, seed=7
        )
        thresholds = repro.estimate_thresholds(config)
        assert thresholds.r0 <= thresholds.r100

    def test_every_public_object_has_a_docstring(self):
        missing = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"public objects without docstrings: {missing}"

    def test_experiment_registry_reachable_from_top_level(self):
        identifiers = {e.identifier for e in repro.list_experiments()}
        assert {"fig2", "fig9", "theorem5-1d"} <= identifiers
        assert repro.get_experiment("fig2").paper_reference == "Figure 2"


@pytest.mark.parametrize("name", REMOVED_MODULES)
def test_removed_modules_are_gone(name):
    assert importlib.util.find_spec(name) is None


def test_every_repro_import_in_the_package_resolves():
    """Imports inside functions too: a lazy import of a deleted module
    would otherwise only fail when its function first runs."""
    problems = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 0:
                continue
            if (node.module or "").split(".")[0] != "repro":
                continue
            try:
                owner = importlib.import_module(node.module)
            except ModuleNotFoundError:
                problems.append(f"{path.relative_to(SOURCE)}: {node.module}")
                continue
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                if not (
                    hasattr(owner, alias.name)
                    or importlib.util.find_spec(qualified) is not None
                ):
                    problems.append(f"{path.relative_to(SOURCE)}: {qualified}")
    assert problems == []
