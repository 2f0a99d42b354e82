"""Query → grid-key normalization.

A query arrives in user terms — a mobility model, a region side (or a
node count, which the paper's ``n = sqrt(l)`` scaling converts to a
side), and either a target connectivity probability or a candidate
transmitting range.  The campaign grid is addressed in store terms —
content-address keys derived from the canonical scenario payload plus
the swept parameter value.  This module is the bridge, and its one hard
invariant is *key identity*: every key it emits is produced by the very
call chain the campaign runner uses
(:func:`repro.campaigns.runner.scenario_payload` →
:meth:`repro.store.checkpoints.StoreSweepCheckpoint.key_for`), so a
query key is bitwise-equal to the key the runner computes for the same
cell.  The execution knob (the sweep worker count) is stripped by
``scale_payload``'s normalization exactly as it is for the runner, so it
can never leak into a query key either.

Out-of-grid queries are *flagged*, never silently clamped: the resolver
still names the nearest edge cells (so the service can extrapolate a
best-effort answer), but ``out_of_grid=True`` travels with the answer
and drives the ``refine=true`` cache-fill path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaigns.runner import scenario_payload, scenario_sweep_key
from repro.campaigns.spec import CampaignSpec, Scenario
from repro.exceptions import ReproError
from repro.experiments.registry import Experiment, get_experiment
from repro.store.checkpoints import StoreSweepCheckpoint

__all__ = [
    "GridIndex",
    "Query",
    "QueryError",
    "ResolvedQuery",
    "resolve",
]


class QueryError(ReproError):
    """The query is malformed or addresses no cell of the campaign grid."""


@dataclass(frozen=True)
class Query:
    """One normalized request against the connectivity surface.

    Exactly one of ``side`` / ``nodes`` locates the system size (a node
    count converts through the paper's ``n = sqrt(l)`` scaling, i.e.
    ``side = n**2``), and exactly one of ``probability`` / ``range``
    picks the direction: a probability asks for the critical range that
    achieves it (inverse query), a range asks for the connectivity
    probability it buys (forward query).
    """

    model: str = "waypoint"
    side: Optional[float] = None
    nodes: Optional[int] = None
    probability: Optional[float] = None
    range: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.side is None) == (self.nodes is None):
            raise QueryError("give exactly one of side= or nodes=")
        if (self.probability is None) == (self.range is None):
            raise QueryError("give exactly one of probability= or range=")
        for name in ("side", "probability", "range"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise QueryError(f"{name} must be finite, got {value}")
        if self.nodes is not None and self.nodes < 2:
            raise QueryError(f"nodes must be >= 2, got {self.nodes}")
        if self.nodes is not None and self.nodes**2 > sys.float_info.max:
            raise QueryError(f"nodes {self.nodes} is too large for a side")
        if self.side is not None and not self.side > 0:
            raise QueryError(f"side must be positive, got {self.side}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise QueryError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.range is not None and self.range < 0:
            raise QueryError(f"range must be >= 0, got {self.range}")

    @property
    def resolved_side(self) -> float:
        """The queried system size as a region side length."""
        if self.side is not None:
            return float(self.side)
        return float(self.nodes) ** 2

    @property
    def inverse(self) -> bool:
        """``True`` for probability → range queries."""
        return self.probability is not None


@dataclass(frozen=True)
class ResolvedQuery:
    """A query pinned to grid cells and their canonical store keys.

    ``bracket`` holds the one or two grid sides whose rows answer the
    query — one when the query hits a grid point exactly (``exact`` is
    set) or falls outside the grid (nearest edge value, for
    extrapolation), two when it falls between grid points.  ``row_keys``
    are the content addresses of those rows, index-aligned with
    ``bracket``, produced by the runner's own key chain.
    """

    query: Query
    scenario: Scenario
    side: float
    exact: Optional[float]
    bracket: Tuple[float, ...]
    row_keys: Tuple[str, ...]
    sweep_key: str
    out_of_grid: bool


@dataclass
class GridIndex:
    """The queryable view of one campaign spec's scenario grid.

    Scenarios are indexed by mobility model (read from the scenario's
    canonical payload, so only experiments whose payload carries a
    ``model`` field — the system-size sweeps behind Figures 2–6 — are
    servable).  When several scenarios share a model (a matrix campaign
    sweeping seeds), grid order wins: the first scenario is the serving
    cell, matching every other first-in-grid-order convention.
    """

    spec: CampaignSpec
    _by_model: Dict[str, Scenario] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for scenario in self.spec.scenarios():
            experiment = get_experiment(scenario.experiment_id)
            payload = scenario_payload(experiment, scenario.scale)
            model = payload.get("model")
            if (
                payload.get("computation") == "system-size-sweep"
                and isinstance(model, str)
                and model not in self._by_model
            ):
                self._by_model[model] = scenario

    @property
    def models(self) -> List[str]:
        return sorted(self._by_model)

    def scenario_for(self, model: str) -> Scenario:
        try:
            return self._by_model[model]
        except KeyError:
            raise QueryError(
                f"no campaign cell serves model {model!r}; "
                f"available: {self.models or '(none)'}"
            ) from None

    def checkpoint_for(
        self, scenario: Scenario, store=None
    ) -> StoreSweepCheckpoint:
        """The cell's sweep checkpoint — the runner's key chain, verbatim.

        Mirrors :meth:`repro.campaigns.runner.CampaignRunner.
        _checkpoint_for` (same payload, same metadata fields, same
        iteration granularity) so every key derived from it is the key
        the runner writes.
        """
        experiment = get_experiment(scenario.experiment_id)
        return StoreSweepCheckpoint(
            store,
            scenario_payload(experiment, scenario.scale),
            metadata={
                "campaign": self.spec.name,
                "scenario": scenario.scenario_id,
            },
            iterations=experiment.checkpoint_iterations(scenario.scale),
        )


def _bracket(values: List[float], side: float) -> Tuple[Tuple[float, ...], bool]:
    """The grid sides enclosing ``side``: exact, pair, or flagged edge."""
    ordered = sorted(values)
    for value in ordered:
        if value == side or math.isclose(value, side, rel_tol=0.0, abs_tol=0.0):
            return (value,), False
    if side < ordered[0]:
        return (ordered[0],), True
    if side > ordered[-1]:
        return (ordered[-1],), True
    for low, high in zip(ordered, ordered[1:]):
        if low < side < high:
            return (low, high), False
    raise AssertionError(f"unreachable bracket fall-through for {side}")


def resolve(
    grid: GridIndex, query: Query, store=None
) -> ResolvedQuery:
    """Pin ``query`` to its enclosing grid cell and canonical keys.

    Raises :class:`QueryError` when no cell serves the query's model or
    the cell's sweep is empty; a query outside the swept side span is
    *resolved* (against the nearest edge value) but flagged
    ``out_of_grid`` — the caller decides whether to extrapolate,
    refine, or refuse.
    """
    scenario = grid.scenario_for(query.model)
    experiment = get_experiment(scenario.experiment_id)
    values = [float(v) for v in experiment.sweep_values(scenario.scale)]
    if not values:
        raise QueryError(
            f"scenario {scenario.scenario_id} sweeps no values"
        )
    side = query.resolved_side
    bracket, out_of_grid = _bracket(values, side)
    checkpoint = grid.checkpoint_for(scenario, store=store)
    return ResolvedQuery(
        query=query,
        scenario=scenario,
        side=side,
        exact=bracket[0] if len(bracket) == 1 and not out_of_grid else None,
        bracket=bracket,
        row_keys=tuple(checkpoint.key_for(value) for value in bracket),
        sweep_key=scenario_sweep_key(experiment, scenario.scale),
        out_of_grid=out_of_grid,
    )
