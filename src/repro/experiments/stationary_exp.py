"""Stationary-network experiments.

Two registered experiments complement the mobile figures:

* ``stationary-critical-range`` — the ``rstationary`` values used as the
  denominator of every ratio in Figures 2–6, for each system size, together
  with the Gupta–Kumar analytical comparator and the best/worst-case
  deterministic placements;
* ``energy-tradeoff`` — the energy-saving narrative of Section 4.2: the
  transmission-energy savings obtained by operating at ``r90``, ``r10``,
  ``rl90``, ``rl75`` and ``rl50`` instead of ``r100``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.analysis.gupta_kumar import gupta_kumar_critical_range
from repro.analysis.worst_best_case import best_case_range_2d, worst_case_range
from repro.energy.model import EnergyModel
from repro.energy.savings import savings_table
from repro.experiments.figures import (
    measure_system_size,
    scale_iterations,
    value_iteration_checkpoint,
)
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.simulation.config import paper_node_count
from repro.simulation.runner import stationary_critical_range
from repro.simulation.sweep import SweepCheckpoint


@dataclass(frozen=True)
class StationaryRangeMeasure:
    """Picklable sweep measure: ``rstationary`` plus analytical comparators."""

    scale: ExperimentScale

    def __call__(self, side: float) -> Dict[str, float]:
        node_count = paper_node_count(side)
        simulated = stationary_critical_range(
            node_count=node_count,
            side=side,
            dimension=2,
            iterations=self.scale.stationary_iterations,
            seed=self.scale.seed,
            confidence=0.99,
        )
        return {
            "n": float(node_count),
            "rstationary": simulated,
            "gupta_kumar": gupta_kumar_critical_range(node_count, side),
            "best_case": best_case_range_2d(node_count, side),
            "worst_case": worst_case_range(side, dimension=2),
            "rstationary/l": simulated / side,
        }


@dataclass(frozen=True)
class EnergyTradeoffMeasure:
    """Picklable sweep measure: energy savings of relaxed thresholds.

    For each system size the waypoint thresholds are measured and the
    transmission-energy saving of each relaxed threshold relative to
    ``r100`` is reported for the free-space (``alpha = 2``) and two-ray
    (``alpha = 4``) path-loss models.
    """

    scale: ExperimentScale
    checkpoint: Optional[SweepCheckpoint] = None

    def __call__(self, side: float) -> Dict[str, float]:
        row = measure_system_size(
            side,
            "waypoint",
            self.scale,
            iteration_checkpoint=value_iteration_checkpoint(
                self.checkpoint, side, paper_node_count(side), self.scale
            ),
        )
        ratios = {
            label: row[label] / row["r100"] if row["r100"] > 0 else 0.0
            for label in ("r90", "r10", "rl90", "rl75", "rl50")
        }
        free_space = savings_table(ratios, EnergyModel(path_loss_exponent=2.0))
        two_ray = savings_table(ratios, EnergyModel(path_loss_exponent=4.0))
        result: Dict[str, float] = {"n": row["n"], "r100": row["r100"]}
        for label, value in ratios.items():
            result[f"{label}/r100"] = value
        for label, value in free_space.items():
            result[f"savings_alpha2@{label}"] = value
        for label, value in two_ray.items():
            result[f"savings_alpha4@{label}"] = value
        return result

    def with_value_checkpoint(
        self, checkpoint: SweepCheckpoint
    ) -> "EnergyTradeoffMeasure":
        return replace(self, checkpoint=checkpoint)


def _stationary_measure(scale: ExperimentScale) -> StationaryRangeMeasure:
    """Measure factory of the stationary-critical-range sweep.

    No ``iterations_per_value`` is registered: each placement draw is a
    single-step frame, far too cheap to be worth one store entry each —
    values are the finest useful resume granularity here.
    """
    return StationaryRangeMeasure(scale=scale)


def _energy_tradeoff_measure(scale: ExperimentScale) -> EnergyTradeoffMeasure:
    """Measure factory of the energy-tradeoff sweep."""
    return EnergyTradeoffMeasure(scale=scale)


register_experiment(Experiment(
    identifier="stationary-critical-range",
    title="Stationary critical transmitting range",
    description=(
        "The simulated rstationary (99th percentile of per-placement exact "
        "critical ranges) for each system size, compared against the "
        "Gupta-Kumar analytical threshold and the best/worst deterministic "
        "placements."
    ),
    paper_reference="Section 4.2 (denominator of Figures 2-6)",
    sweep_measure=_stationary_measure,
))

register_experiment(Experiment(
    identifier="energy-tradeoff",
    title="Energy / quality-of-communication trade-off",
    description=(
        "Transmission-energy savings obtained by operating at r90, r10, "
        "rl90, rl75 or rl50 instead of r100, for path-loss exponents 2 and 4."
    ),
    paper_reference="Section 4.2 discussion",
    sweep_measure=_energy_tradeoff_measure,
    iterations_per_value=scale_iterations,
))
