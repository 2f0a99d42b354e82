"""Threshold estimation: the ``r_x`` and ``rl_x`` values of Figures 2–9.

The paper reports, for each system size and mobility model, the
transmitting ranges ``r100``, ``r90``, ``r10`` (connected during 100 %,
90 %, 10 % of the simulation time), ``r0`` (largest range with no connected
graphs) and ``rl90``, ``rl75``, ``rl50`` (average largest-component
fraction 0.9, 0.75, 0.5), each averaged over the simulation iterations.

:func:`estimate_thresholds` and :func:`estimate_component_thresholds`
compute exactly those averages from per-iteration frame statistics; the
companion ``*_from_statistics`` variants accept pre-computed statistics
(one :class:`~repro.simulation.results.FrameStatisticsColumns` per
iteration) so one expensive mobility run can feed every figure.  The
Figures 7–9 parameter studies run through
:class:`repro.experiments.figures.ParameterStudyMeasure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import SearchError
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import (
    average_largest_fraction_at,
    range_for_connectivity_fraction,
    range_for_no_connectivity,
    ranges_for_component_fractions,
)
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import collect_frame_statistics


@dataclass(frozen=True)
class MobilityThresholds:
    """The connectivity-time thresholds of one configuration.

    All values are averages over the simulation iterations, exactly as the
    paper reports them.
    """

    r100: float
    r90: float
    r10: float
    r0: float


@dataclass(frozen=True)
class ComponentThresholds:
    """The largest-component thresholds ``rl90``, ``rl75``, ``rl50``."""

    rl90: float
    rl75: float
    rl50: float


def _average(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def estimate_thresholds_from_statistics(
    per_iteration: Sequence[FrameStatisticsColumns],
    fractions: Sequence[float] = (1.0, 0.9, 0.1),
) -> MobilityThresholds:
    """Compute connectivity-time thresholds from pre-computed statistics.

    Each iteration yields its own ``r_f`` values; the estimates returned
    are their averages across iterations (the paper's methodology).
    """
    if not per_iteration:
        raise SearchError("at least one iteration of statistics is required")
    if len(fractions) != 3:
        raise SearchError("fractions must contain exactly three values (100/90/10)")
    r_high: List[float] = []
    r_mid: List[float] = []
    r_low: List[float] = []
    r_zero: List[float] = []
    for frames in per_iteration:
        r_high.append(range_for_connectivity_fraction(frames, fractions[0]))
        r_mid.append(range_for_connectivity_fraction(frames, fractions[1]))
        r_low.append(range_for_connectivity_fraction(frames, fractions[2]))
        r_zero.append(range_for_no_connectivity(frames))
    return MobilityThresholds(
        r100=_average(r_high),
        r90=_average(r_mid),
        r10=_average(r_low),
        r0=_average(r_zero),
    )


def estimate_thresholds(config: SimulationConfig) -> MobilityThresholds:
    """Run the configuration and compute ``r100``, ``r90``, ``r10``, ``r0``."""
    statistics = collect_frame_statistics(config)
    return estimate_thresholds_from_statistics(statistics)


def estimate_component_thresholds_from_statistics(
    per_iteration: Sequence[FrameStatisticsColumns],
    fractions: Sequence[float] = (0.9, 0.75, 0.5),
) -> ComponentThresholds:
    """Compute ``rl90``, ``rl75``, ``rl50`` from pre-computed statistics.

    Each iteration yields all three from one sort of its breakpoints
    (:func:`~repro.simulation.metrics.ranges_for_component_fractions`);
    the estimates returned are their averages across iterations.
    """
    if not per_iteration:
        raise SearchError("at least one iteration of statistics is required")
    if len(fractions) != 3:
        raise SearchError("fractions must contain exactly three values (90/75/50)")
    rl90, rl75, rl50 = zip(
        *(ranges_for_component_fractions(frames, fractions) for frames in per_iteration)
    )
    return ComponentThresholds(
        rl90=_average(rl90), rl75=_average(rl75), rl50=_average(rl50)
    )


def estimate_component_thresholds(config: SimulationConfig) -> ComponentThresholds:
    """Run the configuration and compute ``rl90``, ``rl75``, ``rl50``."""
    statistics = collect_frame_statistics(config)
    return estimate_component_thresholds_from_statistics(statistics)


def average_component_fraction_at_range(
    per_iteration: Sequence[FrameStatisticsColumns], transmitting_range: float
) -> float:
    """Average largest-component fraction at a range, across all iterations.

    Pools every frame of every iteration, matching how Figures 4 and 5
    report "the average size of the largest connected component" at the
    ranges ``r90``, ``r10`` and ``r0``.
    """
    return average_largest_fraction_at(
        FrameStatisticsColumns.concatenate(per_iteration), transmitting_range
    )
