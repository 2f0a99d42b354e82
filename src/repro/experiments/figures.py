"""Reproductions of Figures 2–9.

Every experiment here measures exactly what the corresponding paper
figure plots.  Figures 2–6 share one measure, :class:`SystemSizeMeasure`,
which runs the expensive part (one frame-statistics simulation per
system size and mobility model) once and derives all their series from it;
Figures 7–9 share :class:`ParameterStudyMeasure`.

The measures are module-level dataclasses so parameter values can run in
worker processes — a lambda closing over the scale would not pickle.

The experiments are registered in the global registry under the
identifiers ``fig2`` … ``fig9``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Optional, Sequence

from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.simulation.config import (
    MobilitySpec,
    NetworkConfig,
    SimulationConfig,
    paper_node_count,
)
from repro.simulation.metrics import average_largest_fraction_at
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import collect_frame_statistics, stationary_critical_range
from repro.simulation.search import (
    estimate_component_thresholds_from_statistics,
    estimate_thresholds_from_statistics,
)
from repro.simulation.runner import IterationCheckpoint
from repro.simulation.sweep import SweepCheckpoint, iteration_checkpoint_for
from repro.store.keys import scale_payload


#: Node-frames (``n x steps x iterations``) a value must simulate before
#: its iterations are checkpointed one store entry each.  Below it a value
#: runs with no iteration checkpoint: a kill loses at most the value's own
#: work (about 1 s of one core at n = 16, 2 s at n = 128, since kernel plus
#: sweep cost about 0.9-1.7 us per node-frame), while the per-iteration
#: entries would cost more than they save.  Every value of the ``smoke``
#: and ``default`` presets sits below it and every ``paper`` value
#: (>= 8 000 000) above it.
CHECKPOINT_MIN_NODE_FRAMES = 1_000_000


def value_iteration_checkpoint(
    checkpoint: Optional[SweepCheckpoint],
    value: float,
    node_count: int,
    scale: ExperimentScale,
) -> Optional[IterationCheckpoint]:
    """The per-iteration checkpoint of one value, if its work warrants one.

    A value simulating ``node_count * scale.steps * scale.iterations``
    node-frames below :data:`CHECKPOINT_MIN_NODE_FRAMES` gets ``None``;
    a larger one gets ``checkpoint``'s iteration checkpoint for ``value``
    (see :func:`repro.simulation.sweep.iteration_checkpoint_for`).  The
    decision depends only on the scale and ``n``, so which entries a run
    writes is deterministic.
    """
    node_frames = node_count * scale.steps * scale.iterations
    if node_frames < CHECKPOINT_MIN_NODE_FRAMES:
        return None
    return iteration_checkpoint_for(checkpoint, value)


def _mobility_spec_for(model: str, side: float) -> MobilitySpec:
    """Build the Section 4.2 mobility specification for ``model``."""
    if model == "waypoint":
        return MobilitySpec.paper_waypoint(side)
    if model == "drunkard":
        return MobilitySpec.paper_drunkard(side)
    raise ValueError(f"unsupported mobility model for the figures: {model!r}")


def measure_system_size(
    side: float,
    model: str,
    scale: ExperimentScale,
    iteration_checkpoint: Optional[IterationCheckpoint] = None,
) -> Dict[str, float]:
    """All Figure 2–6 quantities for one system size and mobility model.

    Returns a row with the raw thresholds, their ratios to ``rstationary``,
    and the average largest-component fractions at ``r90``, ``r10``, ``r0``.

    ``iteration_checkpoint`` (if given) persists each iteration of the
    mobile simulation as it completes and resumes saved ones; the measures
    pass one only for values at or above :data:`CHECKPOINT_MIN_NODE_FRAMES`
    (see :func:`value_iteration_checkpoint`).  The single-frame stationary
    placements that produce ``rstationary`` are never checkpointed: they
    are reduced together in a few batched kernel calls.
    """
    node_count = paper_node_count(side)
    rstationary = stationary_critical_range(
        node_count=node_count,
        side=side,
        dimension=2,
        iterations=scale.stationary_iterations,
        seed=scale.seed,
        confidence=0.99,
    )
    spec = _mobility_spec_for(model, side)
    config = SimulationConfig(
        network=NetworkConfig(node_count=node_count, side=side, dimension=2),
        mobility=spec,
        steps=scale.steps,
        iterations=scale.iterations,
        seed=scale.seed,
    )
    statistics = collect_frame_statistics(config, checkpoint=iteration_checkpoint)
    thresholds = estimate_thresholds_from_statistics(statistics)
    components = estimate_component_thresholds_from_statistics(statistics)

    row: Dict[str, float] = {
        "n": float(node_count),
        "rstationary": rstationary,
        "r100": thresholds.r100,
        "r90": thresholds.r90,
        "r10": thresholds.r10,
        "r0": thresholds.r0,
        "rl90": components.rl90,
        "rl75": components.rl75,
        "rl50": components.rl50,
    }
    for label in ("r100", "r90", "r10", "r0", "rl90", "rl75", "rl50"):
        row[f"{label}/rstationary"] = row[label] / rstationary if rstationary > 0 else 0.0
    pooled = FrameStatisticsColumns.concatenate(statistics)
    for label in ("r90", "r10", "r0"):
        row[f"lcc_fraction@{label}"] = average_largest_fraction_at(pooled, row[label])
    return row


@dataclass(frozen=True)
class SystemSizeMeasure:
    """Picklable sweep measure: all Figure 2–6 series at one system size.

    Implements the :class:`repro.simulation.sweep.Measure` protocol so the
    system-size sweep can run its sides in parallel worker processes —
    including ``with_value_checkpoint``: when a sweep checkpoint with
    iteration granularity is bound, each side large enough for
    :func:`value_iteration_checkpoint` persists its mobile iterations as
    they finish and resumes saved ones.
    """

    model: str
    scale: ExperimentScale
    checkpoint: Optional[SweepCheckpoint] = None

    def __call__(self, side: float) -> Dict[str, float]:
        return measure_system_size(
            side,
            self.model,
            self.scale,
            iteration_checkpoint=value_iteration_checkpoint(
                self.checkpoint, side, paper_node_count(side), self.scale
            ),
        )

    def with_value_checkpoint(
        self, checkpoint: SweepCheckpoint
    ) -> "SystemSizeMeasure":
        return replace(self, checkpoint=checkpoint)


def system_size_sweep_payload(model: str, scale: ExperimentScale) -> Dict:
    """Content-address payload of the Figure 2–6 system-size sweep.

    Figures 2, 4 and 6 (waypoint) and Figures 3 and 5 (drunkard) each run
    *one* underlying sweep; keying the cache by the computation rather
    than the figure identifier lets them share store entries.
    """
    return {
        "computation": "system-size-sweep",
        "model": model,
        "scale": scale_payload(scale),
    }


def _waypoint_sweep_payload(scale: ExperimentScale) -> Dict:
    return system_size_sweep_payload("waypoint", scale)


def _drunkard_sweep_payload(scale: ExperimentScale) -> Dict:
    return system_size_sweep_payload("drunkard", scale)


# --------------------------------------------------------------------------- #
# Figures 7–9 — r100 / rstationary as one mobility parameter varies
# --------------------------------------------------------------------------- #
#: System side used by the parameter studies of Section 4.3.
PARAMETER_STUDY_SIDE = 4096.0


def _parameter_study_values(scale: ExperimentScale) -> Dict[str, Sequence[float]]:
    """The swept values of pstationary / tpause / vmax at a given scale.

    The paper's points are pstationary in 0..1 (step 0.2, refined 0.02 in
    [0.4, 0.6]), tpause in 0..10000, vmax in 0.01l..0.5l; the presets take
    evenly spaced subsets of those intervals with ``parameter_points``
    points.
    """
    points = scale.parameter_points
    return {
        "pstationary": [i / (points - 1) for i in range(points)],
        "tpause": [i * 10000.0 / (points - 1) for i in range(points)],
        "vmax_fraction": [
            0.01 + i * (0.5 - 0.01) / (points - 1) for i in range(points)
        ],
    }


def _parameter_study_side(scale: ExperimentScale) -> float:
    """System side for Figures 7–9; smoke runs shrink it to stay fast."""
    if scale.name == "smoke":
        return 1024.0
    return PARAMETER_STUDY_SIDE


def _r100_ratio_row(
    scale: ExperimentScale,
    mobility_overrides: Dict,
    iteration_checkpoint: Optional[IterationCheckpoint] = None,
) -> Dict[str, float]:
    """One Figure 7–9 measurement: r100 / rstationary at fixed geometry."""
    side = _parameter_study_side(scale)
    node_count = paper_node_count(side)
    rstationary = stationary_critical_range(
        node_count=node_count,
        side=side,
        dimension=2,
        iterations=scale.stationary_iterations,
        seed=scale.seed,
        confidence=0.99,
    )
    spec = MobilitySpec.paper_waypoint(side, **mobility_overrides)
    config = SimulationConfig(
        network=NetworkConfig(node_count=node_count, side=side, dimension=2),
        mobility=spec,
        steps=scale.steps,
        iterations=scale.iterations,
        seed=scale.seed,
    )
    statistics = collect_frame_statistics(config, checkpoint=iteration_checkpoint)
    thresholds = estimate_thresholds_from_statistics(statistics)
    ratio = thresholds.r100 / rstationary if rstationary > 0 else 0.0
    return {
        "r100": thresholds.r100,
        "rstationary": rstationary,
        "r100/rstationary": ratio,
    }


@dataclass(frozen=True)
class ParameterStudyMeasure:
    """Picklable sweep measure for the Figure 7–9 parameter studies.

    Maps one swept value to the waypoint mobility override it controls
    (``pstationary`` → probability, ``tpause`` → integer pause time,
    ``vmax_fraction`` → ``vmax = fraction * l``) and measures
    ``r100 / rstationary`` at the Section 4.3 geometry, with an iteration
    checkpoint only when :func:`value_iteration_checkpoint` grants one.
    """

    scale: ExperimentScale
    parameter: str
    checkpoint: Optional[SweepCheckpoint] = None

    def __call__(self, value: float) -> Dict[str, float]:
        if self.parameter == "pstationary":
            overrides: Dict = {"pstationary": float(value)}
        elif self.parameter == "tpause":
            overrides = {"tpause": int(value)}
        elif self.parameter == "vmax_fraction":
            overrides = {"vmax": float(value) * _parameter_study_side(self.scale)}
        else:
            raise ValueError(
                f"unsupported parameter study parameter: {self.parameter!r}"
            )
        node_count = paper_node_count(_parameter_study_side(self.scale))
        return _r100_ratio_row(
            self.scale,
            overrides,
            iteration_checkpoint=value_iteration_checkpoint(
                self.checkpoint, value, node_count, self.scale
            ),
        )

    def with_value_checkpoint(
        self, checkpoint: SweepCheckpoint
    ) -> "ParameterStudyMeasure":
        return replace(self, checkpoint=checkpoint)


def parameter_study_values(parameter: str, scale: ExperimentScale) -> Sequence[float]:
    """The swept values of one Figure 7–9 parameter study."""
    return tuple(_parameter_study_values(scale)[parameter])


def parameter_study_payload(parameter: str, scale: ExperimentScale) -> Dict:
    """Content-address payload of one Figure 7–9 parameter study.

    The system side is part of the payload explicitly: it is derived from
    ``scale.name`` (smoke runs shrink it), which :func:`scale_payload`
    deliberately drops — without it, two scales differing only in name
    would collide on a key while simulating different geometries.
    """
    return {
        "computation": "parameter-study",
        "parameter": parameter,
        "side": _parameter_study_side(scale),
        "scale": scale_payload(scale),
    }


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #
def scale_iterations(scale: ExperimentScale) -> int:
    """Iterations one value's mobile simulation runs (= ``scale.iterations``).

    Registered as ``iterations_per_value`` by every experiment whose
    measure checkpoints its inner :func:`repro.simulation.runner.
    collect_frame_statistics` iterations.
    """
    return scale.iterations


def _system_size_measure(model: str, scale: ExperimentScale) -> SystemSizeMeasure:
    """Measure factory of the Figure 2–6 system-size sweeps."""
    return SystemSizeMeasure(model=model, scale=scale)


def _parameter_study_measure(
    parameter: str, scale: ExperimentScale
) -> ParameterStudyMeasure:
    """Measure factory of the Figure 7–9 parameter studies."""
    return ParameterStudyMeasure(scale=scale, parameter=parameter)


def _register_all() -> None:
    register_experiment(Experiment(
        identifier="fig2",
        title="r_x / rstationary vs system size (random waypoint)",
        description=(
            "Ratios of r100, r90, r10 and r0 to the stationary critical range "
            "for l in {256, 1K, 4K, 16K}, n = sqrt(l), under the random "
            "waypoint model with the Section 4.2 parameters."
        ),
        paper_reference="Figure 2",
        cache_payload=_waypoint_sweep_payload,
        sweep_measure=partial(_system_size_measure, 'waypoint'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig3",
        title="r_x / rstationary vs system size (drunkard)",
        description=(
            "Ratios of r100, r90, r10 and r0 to the stationary critical range "
            "under the drunkard model (pstationary=0.1, ppause=0.3, m=0.01l)."
        ),
        paper_reference="Figure 3",
        cache_payload=_drunkard_sweep_payload,
        sweep_measure=partial(_system_size_measure, 'drunkard'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig4",
        title="Largest component fraction at r90/r10/r0 (random waypoint)",
        description=(
            "Average size of the largest connected component, as a fraction "
            "of n, when the range is set to r90, r10 and r0 (waypoint model)."
        ),
        paper_reference="Figure 4",
        cache_payload=_waypoint_sweep_payload,
        sweep_measure=partial(_system_size_measure, 'waypoint'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig5",
        title="Largest component fraction at r90/r10/r0 (drunkard)",
        description=(
            "Average size of the largest connected component, as a fraction "
            "of n, when the range is set to r90, r10 and r0 (drunkard model)."
        ),
        paper_reference="Figure 5",
        cache_payload=_drunkard_sweep_payload,
        sweep_measure=partial(_system_size_measure, 'drunkard'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig6",
        title="rl90 / rl75 / rl50 over rstationary vs system size",
        description=(
            "Ratios of the ranges achieving average largest-component "
            "fractions of 0.9, 0.75 and 0.5 to the stationary critical range "
            "(random waypoint model)."
        ),
        paper_reference="Figure 6",
        cache_payload=_waypoint_sweep_payload,
        sweep_measure=partial(_system_size_measure, 'waypoint'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig7",
        title="r100 / rstationary vs pstationary",
        description=(
            "Effect of the fraction of stationary nodes on the range needed "
            "for permanent connectivity (random waypoint, l=4096, n=64)."
        ),
        paper_reference="Figure 7",
        sweep_values=partial(parameter_study_values, 'pstationary'),
        cache_payload=partial(parameter_study_payload, 'pstationary'),
        parameter_name='pstationary',
        sweep_measure=partial(_parameter_study_measure, 'pstationary'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig8",
        title="r100 / rstationary vs tpause",
        description=(
            "Effect of the pause time on the range needed for permanent "
            "connectivity (random waypoint, l=4096, n=64)."
        ),
        paper_reference="Figure 8",
        sweep_values=partial(parameter_study_values, 'tpause'),
        cache_payload=partial(parameter_study_payload, 'tpause'),
        parameter_name='tpause',
        sweep_measure=partial(_parameter_study_measure, 'tpause'),
        iterations_per_value=scale_iterations,
    ))
    register_experiment(Experiment(
        identifier="fig9",
        title="r100 / rstationary vs vmax",
        description=(
            "Effect of the maximum node velocity on the range needed for "
            "permanent connectivity (random waypoint, l=4096, n=64)."
        ),
        paper_reference="Figure 9",
        sweep_values=partial(parameter_study_values, 'vmax_fraction'),
        cache_payload=partial(parameter_study_payload, 'vmax_fraction'),
        parameter_name='vmax_fraction',
        sweep_measure=partial(_parameter_study_measure, 'vmax_fraction'),
        iterations_per_value=scale_iterations,
    ))


_register_all()
