"""Every top-level definition in ``src/repro`` is reached from outside ``tests/``.

A function or class that only tests call is code the reproduction does
not run.  This guard walks the package with :mod:`ast` and names every
top-level ``def`` or ``class`` with no reference in ``src/``,
``benchmarks/``, ``examples/``, ``perfbench/`` or ``scripts/`` (the
Python here-documents of the shell scripts included).

A reference is a name, an attribute, or a short identifier-like string
constant such as perfbench's ``"module:Class"`` targets.  Imports,
``__all__``, docstrings and a definition's references to itself do not
count, and an import alias counts as its original name.  Names are
matched without their module, so two definitions sharing a name share
their references.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: A here-document handed to ``python``: ``python - <<'TAG' ... TAG``.
HEREDOC = re.compile(r"python3? -[^\n]*<<\s*'?(\w+)'?\n(.*?)\n\1\n", re.DOTALL)
#: A string constant that names something: ``module.path:Class.attr``.
IDENTIFIER_STRING = re.compile(r"[A-Za-z_][\w.:]{0,99}")

#: Definitions that only tests reach, kept on purpose.  One reason each.
#: (The single-frame references the batched kernels are tested against —
#: ``critical_range``, ``minimum_spanning_edges``, ``frame_statistics``,
#: ``component_growth_curve`` and the point graph — are still reached
#: from ``src/``, so they need no entry.)
ALLOWED = {
    # Oracles of the best- and worst-case range tests.
    "grid_placement": "best-case (lattice) placement of the range tests",
    "corner_clusters_placement": "worst-case placement of the range tests",
    # The paper's reported values, kept for grading the reproduction.
    "compare_with_paper": "compares a reproduced value with the paper's",
    # The flow the package docstring's quickstart shows, pinned by
    # test_quickstart_docstring_flow.
    "estimate_thresholds": "quickstart: r100, r90, r10 and r0 of a config",
    "estimate_component_thresholds": "quickstart: rl90, rl75 and rl50 of a config",
    # Reads back what save_sweep and ``repro run --output`` write.
    "load_sweep": "reader of the files save_sweep writes",
    # Tests probe the live tracing state through these.
    "enabled": "whether this process records spans",
    "current_context": "the span context a child process would inherit",
    # Documentation of the measure interface; measures match it by duck
    # typing and nothing subclasses it.
    "Measure": "protocol of a sweep measure",
}


def _python_sources() -> Iterator[Tuple[Path, str]]:
    """``(path, source)`` of every Python text outside ``tests/``."""
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*")):
            if "__pycache__" in path.parts or not path.is_file():
                continue
            if path.suffix == ".py":
                yield path, path.read_text(encoding="utf-8")
            elif path.suffix == ".sh":
                text = path.read_text(encoding="utf-8")
                for match in HEREDOC.finditer(text):
                    yield path, match.group(2)


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _skipped(tree: ast.AST) -> Set[int]:
    """``id`` of every node inside an import or an ``__all__`` assignment."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        ):
            skipped.update(id(inner) for inner in ast.walk(node))
    return skipped


def _aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> original name of every ``import ... as ...``."""
    return {
        alias.asname: alias.name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _references(
    node: ast.AST, ignored: Set[int], aliases: Dict[str, str]
) -> List[str]:
    """Every name, attribute and identifier-like string ``node`` mentions."""
    names = []
    for inner in ast.walk(node):
        if id(inner) in ignored:
            continue
        if isinstance(inner, ast.Name):
            names.append(aliases.get(inner.id, inner.id))
        elif isinstance(inner, ast.Attribute):
            names.append(inner.attr)
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            if IDENTIFIER_STRING.fullmatch(inner.value):
                names.extend(re.split(r"[.:]", inner.value))
    return names


def reference_counts(
    sources: Optional[Iterable[Tuple[Path, str]]] = None,
) -> Counter:
    """How often each name is referenced in ``sources``: ``(path, source)``
    pairs, by default every Python text outside ``tests/``.

    A top-level definition's references to its own name (recursion, its
    own annotations) do not count.
    """
    counts: Counter = Counter()
    for path, source in _python_sources() if sources is None else sources:
        tree = ast.parse(source, filename=str(path))
        ignored = _docstrings(tree) | _skipped(tree)
        aliases = _aliases(tree)
        for statement in tree.body:
            names = _references(statement, ignored, aliases)
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names = [name for name in names if name != statement.name]
            counts.update(names)
    return counts


def top_level_definitions(package: Path = PACKAGE) -> List[Tuple[str, str]]:
    """``(module path, name)`` of every top-level def and class in ``package``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found.append((str(path.relative_to(package.parent)), statement.name))
    return found


def unreached(
    package: Path = PACKAGE,
    sources: Optional[Iterable[Tuple[Path, str]]] = None,
) -> List[str]:
    """``module:name`` of every top-level definition in ``package`` that
    nothing in ``sources`` (by default: outside ``tests/``) references."""
    counts = reference_counts(sources)
    return [
        f"{module}:{name}"
        for module, name in top_level_definitions(package)
        if counts[name] == 0
    ]


@pytest.fixture(scope="module")
def flagged() -> List[str]:
    return unreached()


def test_every_definition_is_reached_outside_tests(flagged):
    offenders = [entry for entry in flagged if entry.rpartition(":")[2] not in ALLOWED]
    assert offenders == [], (
        "only tests reach these definitions; call them, delete them, or "
        f"give them an ALLOWED entry with a reason: {offenders}"
    )


def test_every_allowed_name_is_still_unreached(flagged):
    """An entry whose definition gained a caller, or went away, is stale."""
    names = {entry.rpartition(":")[2] for entry in flagged}
    assert sorted(set(ALLOWED) - names) == []


def test_an_import_alias_counts_as_its_original_name():
    # cli.py calls progress.as_text only as progress_as_text.
    tree = ast.parse("from m import as_text as progress_as_text\nprogress_as_text()\n")
    assert _references(tree, _skipped(tree), _aliases(tree)) == ["as_text"]


def _names(source: str) -> List[str]:
    """The references the guard counts in one Python text."""
    tree = ast.parse(source)
    return _references(tree, _docstrings(tree) | _skipped(tree), _aliases(tree))


@pytest.mark.parametrize(
    "source",
    [
        "target()\n",
        "module.target\n",
        "TARGET = 'package.module:target'\n",
        "from module import target as alias\nalias()\n",
    ],
    ids=["name", "attribute", "identifier-string", "import-alias"],
)
def test_a_reference_counts(source):
    assert "target" in _names(source)


@pytest.mark.parametrize(
    "source",
    [
        "import target\n",
        "from module import target\n",
        "__all__ = ['target']\n",
        '"""target"""\n',
        'def f():\n    """target"""\n',
        "TEXT = 'call target() here'\n",
    ],
    ids=[
        "import",
        "from-import",
        "__all__",
        "module-docstring",
        "function-docstring",
        "prose-string",
    ],
)
def test_not_a_reference(source):
    assert "target" not in _names(source)


def test_a_definition_does_not_reach_itself():
    source = "def target():\n    return target()\n\n\ndef caller():\n    return other()\n"
    counts = reference_counts([(Path("module.py"), source)])
    assert counts["target"] == 0
    assert counts["other"] == 1


def test_a_shell_here_document_is_read_as_python():
    script = "set -e\npython3 - <<'PY'\nfrom repro import x\ntarget(x)\nPY\necho done\n"
    (body,) = [match.group(2) for match in HEREDOC.finditer(script)]
    assert "target" in _names(body)


def test_the_guard_names_a_definition_only_tests_reach(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    (package / "module.py").write_text(
        "def used():\n    pass\n\n\ndef unused():\n    pass\n", encoding="utf-8"
    )
    callers = [(tmp_path / "caller.py", "from package.module import used\nused()\n")]
    assert unreached(package, callers) == ["package/module.py:unused"]
