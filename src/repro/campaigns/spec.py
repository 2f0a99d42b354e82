"""Declarative campaign specifications.

A campaign spec names a set of registered experiments, a base scale
preset, optional scale overrides applied to every scenario, and a
*matrix* of scale fields each taking several values.  The scenario grid
is the cartesian product ``experiments x matrix cells``; every cell is an
:class:`~repro.experiments.registry.ExperimentScale` built by applying
the overrides and the cell's assignments to the base preset.

Specs load from TOML or JSON files::

    name = "connectivity-grid"
    experiments = ["fig2", "fig4", "fig7"]
    scale = "smoke"

    [overrides]
    steps = 40

    [matrix]
    seed = [1, 2, 3]
    iterations = [2, 4]

enumerates ``3 experiments x 3 seeds x 2 iteration counts = 18``
scenarios.  Every overridable field describes the computation; the
worker budget belongs to the invocation (``campaign run
--total-workers``), not to the campaign's identity, so no spec field
sets it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.experiments.registry import ExperimentScale, scale_by_name

PathLike = Union[str, Path]

#: ``ExperimentScale`` fields a spec may override or sweep: all but the
#: preset name, which the spec's ``scale`` key picks.
_SCALE_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ExperimentScale)
) - {"name"}


def _check_scale_fields(assignments: Mapping[str, Any], context: str) -> None:
    unknown = set(assignments) - _SCALE_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown scale field(s) {sorted(unknown)} in campaign {context}; "
            f"allowed: {sorted(_SCALE_FIELDS)} (the worker budget is the "
            "per-invocation --total-workers flag, not a spec field)"
        )


def _freeze(value: Any) -> Any:
    """Lists from TOML/JSON become tuples so scenarios hash and compare."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class Scenario:
    """One cell of a campaign grid: an experiment at a concrete scale."""

    scenario_id: str
    experiment_id: str
    scale: ExperimentScale
    cell: Tuple[Tuple[str, Any], ...] = ()

    def describe(self) -> str:
        """Human-readable one-liner for status listings."""
        if not self.cell:
            return self.experiment_id
        assignments = ", ".join(f"{key}={value!r}" for key, value in self.cell)
        return f"{self.experiment_id} [{assignments}]"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: experiments x scale matrix.

    Attributes:
        name: campaign name (used in store metadata and status output).
        experiments: registered experiment identifiers to run.
        scale: base scale preset name (``smoke`` / ``default`` / ``paper``).
        overrides: scale fields replaced in every scenario.
        matrix: scale fields swept across scenarios; the grid is the
            cartesian product of the value lists in declaration order.
    """

    name: str
    experiments: Tuple[str, ...]
    scale: str = "default"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    matrix: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign name must not be empty")
        if not self.experiments:
            raise ConfigurationError(
                "a campaign must name at least one experiment"
            )
        _check_scale_fields(dict(self.overrides), f"{self.name!r} overrides")
        _check_scale_fields(dict(self.matrix), f"{self.name!r} matrix")
        for field_name, values in self.matrix:
            if not isinstance(values, tuple) or not values:
                raise ConfigurationError(
                    f"matrix field {field_name!r} needs a non-empty list of "
                    f"values, got {values!r}"
                )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a parsed TOML/JSON document."""
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"campaign spec must be a table/object, got {type(document).__name__}"
            )
        known = {"name", "experiments", "scale", "overrides", "matrix"}
        unknown = set(document) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        experiments = document.get("experiments")
        if not isinstance(experiments, (list, tuple)) or not all(
            isinstance(item, str) for item in experiments or []
        ):
            raise ConfigurationError(
                "campaign spec needs an 'experiments' list of identifiers"
            )
        overrides = document.get("overrides", {})
        matrix = document.get("matrix", {})
        if not isinstance(overrides, Mapping) or not isinstance(matrix, Mapping):
            raise ConfigurationError(
                "'overrides' and 'matrix' must be tables mapping scale fields"
            )
        return cls(
            name=str(document.get("name", "")),
            experiments=tuple(experiments),
            scale=str(document.get("scale", "default")),
            overrides=tuple(
                (key, _freeze(value)) for key, value in overrides.items()
            ),
            matrix=tuple(
                (key, tuple(_freeze(item) for item in values))
                if isinstance(values, (list, tuple))
                else (key, values)
                for key, values in matrix.items()
            ),
        )

    @classmethod
    def load(cls, path: PathLike) -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        source = Path(path)
        suffix = source.suffix.lower()
        if suffix == ".toml":
            document = tomllib.loads(source.read_text())
        elif suffix == ".json":
            document = json.loads(source.read_text())
        else:
            raise ConfigurationError(
                f"unsupported campaign spec format {suffix!r}; use .toml or .json"
            )
        if isinstance(document, dict) and not document.get("name"):
            # Default the campaign name to the file stem.
            document = {**document, "name": source.stem}
        return cls.from_dict(document)

    # ------------------------------------------------------------------ #
    def base_scale(self) -> ExperimentScale:
        """The base preset with the campaign-wide overrides applied."""
        scale = scale_by_name(self.scale)
        if self.overrides:
            scale = dataclasses.replace(scale, **dict(self.overrides))
        return scale

    def cells(self) -> List[Tuple[Tuple[str, Any], ...]]:
        """Every matrix cell, in cartesian-product order (may be ``[()]``)."""
        if not self.matrix:
            return [()]
        names = [name for name, _ in self.matrix]
        value_lists = [values for _, values in self.matrix]
        return [
            tuple(zip(names, combination))
            for combination in itertools.product(*value_lists)
        ]

    def scenarios(self) -> List[Scenario]:
        """The full scenario grid: experiments x matrix cells, in order."""
        base = self.base_scale()
        grid: List[Scenario] = []
        for experiment_id in self.experiments:
            for cell in self.cells():
                scale = (
                    dataclasses.replace(base, **dict(cell)) if cell else base
                )
                suffix = ",".join(f"{key}={value}" for key, value in cell)
                scenario_id = (
                    f"{experiment_id}@{suffix}" if suffix else experiment_id
                )
                grid.append(
                    Scenario(
                        scenario_id=scenario_id,
                        experiment_id=experiment_id,
                        scale=scale,
                        cell=cell,
                    )
                )
        return grid

    def scenario_count(self) -> int:
        """Size of the grid without materialising it."""
        cells = 1
        for _, values in self.matrix:
            cells *= len(values)
        return len(self.experiments) * cells
