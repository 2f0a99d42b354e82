"""Experiment registry and scale presets.

An :class:`Experiment` couples an identifier (``"fig2"``), a human readable
description, and the per-value measure of its parameter sweep.  Every
experiment is a sweep of independent parameter values, so the measure is
the whole experiment: :meth:`Experiment.run` measures every value in
order, in-process, and the campaign scheduler runs the same measure one
value per task.  Experiments are registered at import time by the figure
modules and looked up by the CLI and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.simulation.sweep import SweepCheckpoint, SweepResult, measure_row


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of an experiment run.

    Attributes:
        name: preset name (``smoke``, ``default``, ``paper`` or custom).
        sides: the system sides ``l`` to sweep (Figures 2–6).
        steps: mobility steps per iteration.
        iterations: independent iterations per configuration.
        stationary_iterations: placements drawn when estimating
            ``rstationary``.
        parameter_points: number of points in the parameter sweeps of
            Figures 7–9.
        seed: root random seed.

    Every field but ``name`` describes the computation and enters the
    key payload (:func:`repro.store.keys.scale_payload`).  How many
    values run at once is the campaign's worker budget (``campaign run
    --total-workers``), not a field of the scale.
    """

    name: str
    sides: Sequence[float]
    steps: int
    iterations: int
    stationary_iterations: int
    parameter_points: int
    seed: Optional[int] = 20020623  # DSN 2002 conference date.

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError(f"steps must be at least 1, got {self.steps}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be at least 1, got {self.iterations}"
            )
        if self.stationary_iterations < 1:
            raise ConfigurationError(
                "stationary_iterations must be at least 1, got "
                f"{self.stationary_iterations}"
            )
        if self.parameter_points < 2:
            raise ConfigurationError(
                f"parameter_points must be at least 2, got {self.parameter_points}"
            )
        if not self.sides:
            raise ConfigurationError("sides must contain at least one system size")


#: The three built-in scale presets.
SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        sides=(256.0, 1024.0),
        steps=25,
        iterations=2,
        stationary_iterations=30,
        parameter_points=3,
    ),
    "default": ExperimentScale(
        name="default",
        sides=(256.0, 1024.0, 4096.0, 16384.0),
        steps=600,
        iterations=5,
        stationary_iterations=400,
        parameter_points=6,
    ),
    "paper": ExperimentScale(
        name="paper",
        sides=(256.0, 1024.0, 4096.0, 16384.0),
        steps=10000,
        iterations=50,
        stationary_iterations=1000,
        parameter_points=11,
    ),
}


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; expected one of {sorted(SCALES)}"
        ) from None


def side_sweep_values(scale: ExperimentScale) -> Sequence[float]:
    """Swept values of the system-size experiments (the sides themselves)."""
    return tuple(float(side) for side in scale.sides)


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper figure/table.

    ``sweep_measure`` maps a scale to the *picklable* per-value measure
    of the experiment's sweep (see :class:`repro.simulation.sweep.
    Measure`).  Every value is measured independently, with no
    cross-value state, so a value is the unit of work everywhere:
    :meth:`run` measures ``sweep_values(scale)`` one after another in
    this process — the reference every campaign is compared against —
    and the campaign scheduler runs one value per task, interleaved with
    other scenarios under one worker budget.

    ``sweep_values`` reports the values the sweep visits, which is what
    the campaign layer checkpoints per value and reports progress
    against.  Defaults to the system sides.

    ``cache_payload`` maps a scale to the canonical content-address
    payload of the experiment's sweep.  Experiments that run the *same*
    computation (Figures 2/4/6 all run the waypoint system-size sweep;
    Figures 3/5 the drunkard one) register the same payload and therefore
    share result-store entries.  ``None`` (the default) falls back to
    ``{"experiment": identifier, "scale": <scale fields>}``.

    ``parameter_name`` is the column name of the swept parameter ("l"
    for the system-size sweeps, the studied parameter for Figures 7–9).

    ``iterations_per_value`` reports how many simulation iterations one
    value's measure runs at a given scale, for experiments whose measures
    support iteration-granular checkpointing (see :meth:`repro.simulation.
    sweep.Measure.with_value_checkpoint`); ``None`` means values are the
    finest resume granularity.
    """

    identifier: str
    title: str
    description: str
    paper_reference: str
    sweep_measure: Callable[[ExperimentScale], Any] = field(repr=False)
    sweep_values: Callable[[ExperimentScale], Sequence[float]] = field(
        default=side_sweep_values, repr=False
    )
    cache_payload: Optional[Callable[[ExperimentScale], Dict[str, Any]]] = field(
        default=None, repr=False
    )
    parameter_name: str = "l"
    iterations_per_value: Optional[Callable[[ExperimentScale], int]] = field(
        default=None, repr=False
    )

    def run(self, scale: ExperimentScale) -> SweepResult:
        """Measure every value of the sweep in order, in this process."""
        measure = self.sweep_measure(scale)
        return SweepResult(
            parameter_name=self.parameter_name,
            rows=[
                measure_row(self.parameter_name, measure, value)
                for value in self.sweep_values(scale)
            ],
        )

    def measure_for(self, scale: ExperimentScale, checkpoint: SweepCheckpoint):
        """The measure at ``scale``, bound to ``checkpoint`` if it can use one.

        A measure implementing ``with_value_checkpoint`` is rebound so
        each value it measures can persist and resume its iterations; any
        other measure comes back unchanged.
        """
        measure = self.sweep_measure(scale)
        rebind = getattr(measure, "with_value_checkpoint", None)
        return measure if rebind is None else rebind(checkpoint)

    def checkpoint_iterations(self, scale: ExperimentScale) -> Optional[int]:
        """Iterations one value's simulation checkpoints, or ``None``."""
        if self.iterations_per_value is None:
            return None
        return self.iterations_per_value(scale)


_REGISTRY: Dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    """Add ``experiment`` to the global registry (idempotent by identifier)."""
    _REGISTRY[experiment.identifier] = experiment
    return experiment


def get_experiment(identifier: str) -> Experiment:
    """Look up a registered experiment.

    Raises:
        ConfigurationError: if no experiment has that identifier.
    """
    try:
        return _REGISTRY[identifier]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {identifier!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> List[Experiment]:
    """All registered experiments, sorted by identifier."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]
