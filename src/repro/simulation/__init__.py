"""Simulation engine for the mobile MTRM study (Section 4).

The engine mirrors the simulator described in Section 4.1 of the paper:
``n`` nodes are placed uniformly at random in ``[0, l]^d``, a mobility
model moves them for ``#steps`` steps, and at every step the communication
graph induced by the common transmitting range is examined.  Instead of
fixing that range, each frame is reduced to its exact critical range and
component-growth curve, so the paper's outputs at any range — percentage
of connected graphs, average and minimum size of the largest connected
component, per iteration and across iterations — are queries on the
per-frame statistics
(:meth:`~repro.simulation.results.FrameStatisticsColumns.connected_at`,
:meth:`~repro.simulation.results.FrameStatisticsColumns.
largest_component_sizes_at`), and *every* threshold (``r100``, ``r90``,
``r10``, ``r0``, ``rl90``, ``rl75``, ``rl50``) is extracted from a single
mobility run.

Main entry points:

* :class:`~repro.simulation.config.SimulationConfig` — declarative
  description of a run.
* :func:`~repro.simulation.runner.collect_frame_statistics` — one mobility
  run, one :class:`~repro.simulation.results.FrameStatisticsColumns` of
  per-frame critical ranges and component curves per iteration.
* :func:`~repro.simulation.search.estimate_thresholds` — the ``r_x`` and
  ``rl_x`` values plotted in Figures 2–9.
* :func:`~repro.simulation.runner.stationary_critical_range` — the
  ``rstationary`` denominator.

Execution is bit-identical to a serial run for the same seed:

* the parameter value is the unit of parallel work — the campaign
  scheduler's pool and the distributed work queue each run one value
  per task (:func:`~repro.simulation.sweep.measure_row`), and the
  value's iterations run serially inside it (each iteration owns child
  stream ``i`` of the root seed);
* the per-frame hot path is vectorized (batched mobility trajectories +
  batched MST reduction into columnar containers, see
  :func:`~repro.simulation.engine.frame_statistics_columns`), and results
  cross process boundaries as struct-of-arrays
  (:class:`~repro.simulation.results.FrameStatisticsColumns`) instead of
  per-step objects.
"""

from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    FrameStatistics,
    component_growth_curve,
    frame_statistics,
    frame_statistics_columns,
    simulate_frame_statistics,
)
from repro.simulation.metrics import (
    average_largest_fraction_at,
    range_for_connectivity_fraction,
    range_for_no_connectivity,
)
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import (
    collect_frame_statistics,
    stationary_critical_range,
)
from repro.simulation.search import (
    ComponentThresholds,
    MobilityThresholds,
    estimate_component_thresholds,
    estimate_thresholds,
)
from repro.simulation.sweep import Measure, SweepResult

__all__ = [
    "ComponentThresholds",
    "FrameStatistics",
    "FrameStatisticsColumns",
    "Measure",
    "MobilitySpec",
    "MobilityThresholds",
    "NetworkConfig",
    "SimulationConfig",
    "SweepResult",
    "average_largest_fraction_at",
    "collect_frame_statistics",
    "component_growth_curve",
    "estimate_component_thresholds",
    "estimate_thresholds",
    "frame_statistics",
    "frame_statistics_columns",
    "range_for_connectivity_fraction",
    "range_for_no_connectivity",
    "simulate_frame_statistics",
    "stationary_critical_range",
]
