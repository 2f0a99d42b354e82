"""Every ``repro`` import in ``examples/`` resolves.

The examples are not run here (the longer ones take minutes).  Each one
is parsed instead, and every ``import repro...`` and ``from repro...
import name`` in it, including imports inside functions, must name a
module and a name that exist, as must every attribute read off the
top-level ``repro`` package.  Deleting or renaming something an example
uses then fails the suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def module_exists(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent package is missing
        return False


def repro_references(path):
    """``(module, name)`` pairs an example takes from ``repro``.

    ``name`` is ``None`` for a plain ``import repro.x``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
        ):
            yield "repro", node.attr


def unresolved(path):
    """Messages for each reference of :func:`repro_references` that fails."""
    problems = []
    for module, name in sorted(set(repro_references(path)), key=str):
        if not module_exists(module):
            problems.append(f"{path.name}: no module {module}")
        elif name is not None:
            owner = importlib.import_module(module)
            if not (hasattr(owner, name) or module_exists(f"{module}.{name}")):
                problems.append(f"{path.name}: {module} has no {name}")
    return problems


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_repro_imports_resolve(path):
    assert set(repro_references(path)), f"{path.name} takes nothing from repro"
    assert unresolved(path) == []


class TestTheCheckItself:
    """The check catches what it exists for, on sources written here."""

    @pytest.fixture
    def example(self, tmp_path):
        def write(source):
            path = tmp_path / "example.py"
            path.write_text(source, encoding="utf-8")
            return path

        return write

    def test_a_deleted_package_imported_inside_a_function_fails(self, example):
        path = example(
            "import repro\n\n"
            "def fraction_connected():\n"
            "    from repro.availability import estimate_availability\n"
        )
        assert unresolved(path) == ["example.py: no module repro.availability"]

    def test_a_missing_name_fails(self, example):
        path = example("from repro.simulation import FrameStatisticsColumns, Nope\n")
        assert unresolved(path) == ["example.py: repro.simulation has no Nope"]

    def test_a_missing_attribute_of_the_package_fails(self, example):
        path = example("import repro\n\nrepro.no_such_function()\n")
        assert unresolved(path) == ["example.py: repro has no no_such_function"]

    def test_a_missing_submodule_import_fails(self, example):
        path = example("import repro.topology.knn as knn\n")
        assert unresolved(path) == ["example.py: no module repro.topology.knn"]

    def test_nested_and_aliased_imports_are_collected(self, example):
        path = example(
            "import repro.simulation.engine as engine\n"
            "from repro import simulation\n\n"
            "class Report:\n"
            "    def build(self):\n"
            "        from repro.connectivity.critical_range import critical_range\n"
            "        return repro.critical_range\n"
        )
        assert set(repro_references(path)) == {
            ("repro.simulation.engine", None),
            ("repro", "simulation"),
            ("repro.connectivity.critical_range", "critical_range"),
            ("repro", "critical_range"),
        }
        assert unresolved(path) == []

    def test_other_packages_and_relative_imports_are_ignored(self, example):
        path = example(
            "import numpy as np\n"
            "from . import sibling\n"
            "from .repro import helper\n"
            "np.repro\n"
        )
        assert list(repro_references(path)) == []
