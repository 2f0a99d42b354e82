"""Query → grid-key normalization.

A query arrives in user terms — a mobility model, a region side (or a
node count, which the paper's ``n = sqrt(l)`` scaling converts to a
side), and either a target connectivity probability or a candidate
transmitting range.  The campaign grid is addressed in store terms —
content-address keys derived from the canonical scenario payload plus
the swept parameter value.  This module is the bridge, and its one hard
invariant is *key identity*: every key it emits is produced by the very
call chain the campaign runner uses
(:func:`repro.campaigns.runner.scenario_checkpoint` →
:meth:`repro.store.checkpoints.StoreSweepCheckpoint.key_for`), so a
query key is bitwise-equal to the key the runner computes for the same
cell.

Every key is a pure function of (scenario, grid side), so
:class:`GridIndex` builds the key table once per grid: for each
servable model its scenario, sorted sides, every side's row key and one
checkpoint whose canonical document is rendered once.  :func:`resolve`
is then a bisection plus lookups; only a side off the grid hashes its
own key (one sha256, no normalization).

Out-of-grid queries are *flagged*, never silently clamped: the resolver
still names the nearest edge cells (so the service can extrapolate a
best-effort answer), but ``out_of_grid=True`` travels with the answer
and drives the ``refine=true`` cache-fill path.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaigns.runner import scenario_checkpoint, scenario_payload
from repro.campaigns.spec import CampaignSpec, Scenario
from repro.exceptions import ReproError
from repro.experiments.registry import get_experiment
from repro.store.checkpoints import StoreSweepCheckpoint

__all__ = [
    "GridIndex",
    "Query",
    "QueryError",
    "ResolvedQuery",
    "ServedSweep",
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
class ServedSweep:
    """One servable model's row of the key table, built once per grid.

    ``sides`` are the scenario's grid sides in ascending order and
    ``row_keys`` their store keys, index-aligned.  ``checkpoint`` holds
    the canonical payload and renders its key document once, so a side
    off the grid costs one sha256; it is bound to no store (see
    :meth:`~repro.store.checkpoints.StoreSweepCheckpoint.with_store`).
    """

    scenario: Scenario
    sides: Tuple[float, ...]
    row_keys: Tuple[str, ...]
    checkpoint: StoreSweepCheckpoint = field(repr=False)


@dataclass(frozen=True)
class ResolvedQuery:
    """A query pinned to grid cells and their canonical store keys.

    ``bracket`` holds the one or two grid sides whose rows answer the
    query — one when the query hits a grid point exactly (``exact`` is
    set) or falls outside the grid (nearest edge value, for
    extrapolation), two when it falls between grid points.  ``row_keys``
    are the content addresses of those rows, index-aligned with
    ``bracket``; ``side_key`` addresses a row at the queried side itself
    (a grid row when ``exact`` is set, else a refined one).
    """

    query: Query
    sweep: ServedSweep
    side: float
    exact: Optional[float]
    bracket: Tuple[float, ...]
    row_keys: Tuple[str, ...]
    side_key: str
    out_of_grid: bool


@dataclass
class GridIndex:
    """The queryable view of one campaign spec's scenario grid.

    Scenarios are indexed by mobility model (read from the scenario's
    canonical payload, so only experiments whose payload carries a
    ``model`` field — the system-size sweeps behind Figures 2–6 — are
    servable).  When several scenarios share a model (a matrix campaign
    sweeping seeds), grid order wins: the first scenario is the serving
    cell, matching every other first-in-grid-order convention.  Each
    servable model's keys are computed here, once (:class:`ServedSweep`).
    """

    spec: CampaignSpec
    _by_model: Dict[str, ServedSweep] = field(default_factory=dict, repr=False)

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
                checkpoint = self.checkpoint_for(scenario)
                sides = tuple(
                    sorted(float(v) for v in experiment.sweep_values(scenario.scale))
                )
                self._by_model[model] = ServedSweep(
                    scenario=scenario,
                    sides=sides,
                    row_keys=tuple(checkpoint.key_for(side) for side in sides),
                    checkpoint=checkpoint,
                )

    @property
    def models(self) -> List[str]:
        return sorted(self._by_model)

    def sweep_for(self, model: str) -> ServedSweep:
        try:
            return self._by_model[model]
        except KeyError:
            raise QueryError(
                f"no campaign cell serves model {model!r}; "
                f"available: {self.models or '(none)'}"
            ) from None

    def scenario_for(self, model: str) -> Scenario:
        return self.sweep_for(model).scenario

    def checkpoint_for(
        self, scenario: Scenario, store=None
    ) -> StoreSweepCheckpoint:
        """The cell's sweep checkpoint: the runner's, so every key derived
        from it is the key the runner writes."""
        return scenario_checkpoint(
            store, self.spec.name, get_experiment(scenario.experiment_id), scenario
        )


def resolve(grid: GridIndex, query: Query) -> ResolvedQuery:
    """Pin ``query`` to its enclosing grid cell and canonical keys.

    Raises :class:`QueryError` when no cell serves the query's model or
    the cell's sweep is empty; a query outside the swept side span is
    *resolved* (against the nearest edge value) but flagged
    ``out_of_grid`` — the caller decides whether to extrapolate,
    refine, or refuse.
    """
    sweep = grid.sweep_for(query.model)
    sides = sweep.sides
    if not sides:
        raise QueryError(
            f"scenario {sweep.scenario.scenario_id} sweeps no values"
        )
    side = query.resolved_side
    index = bisect_left(sides, side)
    exact: Optional[float] = None
    out_of_grid = False
    if index < len(sides) and sides[index] == side:
        exact = sides[index]
        picked: Tuple[int, ...] = (index,)
    elif index == 0:
        picked, out_of_grid = (0,), True
    elif index == len(sides):
        picked, out_of_grid = (index - 1,), True
    else:
        picked = (index - 1, index)
    row_keys = tuple(sweep.row_keys[i] for i in picked)
    return ResolvedQuery(
        query=query,
        sweep=sweep,
        side=side,
        exact=exact,
        bracket=tuple(sides[i] for i in picked),
        row_keys=row_keys,
        side_key=(
            row_keys[0] if exact is not None else sweep.checkpoint.key_for(side)
        ),
        out_of_grid=out_of_grid,
    )
