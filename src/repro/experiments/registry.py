"""Experiment registry and scale presets.

An :class:`Experiment` couples an identifier (``"fig2"``), a human readable
description, and a ``run`` callable taking an :class:`ExperimentScale` and
returning a :class:`repro.simulation.sweep.SweepResult`.  Experiments are
registered at import time by the figure modules and looked up by the CLI
and the benchmarks.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.simulation.sweep import SweepCheckpoint, SweepResult


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
        sweep_workers: parameter values of a figure sweep measured
            concurrently, each in its own worker process that runs the
            value's iterations serially (see :func:`repro.simulation.
            sweep.sweep_parameter`).  The one execution field: results are
            bit-identical for every value and it never enters cache keys.
    """

    name: str
    sides: Sequence[float]
    steps: int
    iterations: int
    stationary_iterations: int
    parameter_points: int
    seed: Optional[int] = 20020623  # DSN 2002 conference date.
    sweep_workers: int = 1

    def with_sweep_workers(self, sweep_workers: int) -> "ExperimentScale":
        """Copy of this scale with ``sweep_workers`` value-level processes."""
        return replace(self, sweep_workers=sweep_workers)

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
        if self.sweep_workers < 1:
            raise ConfigurationError(
                f"sweep_workers must be at least 1, got {self.sweep_workers}"
            )


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

    ``sweep_values`` reports the actual values that sweep visits, which is
    what the campaign layer needs to checkpoint per value and to report
    partial progress.  Defaults to the system sides.

    ``cache_payload`` maps a scale to the canonical content-address
    payload of the experiment's sweep.  Experiments that run the *same*
    computation (Figures 2/4/6 all run the waypoint system-size sweep;
    Figures 3/5 the drunkard one) register the same payload and therefore
    share result-store entries.  ``None`` (the default) falls back to
    ``{"experiment": identifier, "scale": <scale fields>}``.

    ``parameter_name`` is the column name of the swept parameter — what
    the experiment's ``run`` passes to :func:`repro.simulation.sweep.
    sweep_parameter` ("l" for the system-size sweeps, the studied
    parameter for Figures 7–9).

    ``sweep_measure`` maps a scale to the *picklable* per-value measure
    the experiment's sweep runs.  Registering it asserts that
    ``run(scale)`` is exactly ``sweep_parameter(parameter_name,
    sweep_values(scale), sweep_measure(scale))`` — i.e. every value is
    measured independently, with no cross-value state — which is what
    lets the campaign scheduler decompose the experiment into value
    tasks and interleave them with other scenarios under one worker
    budget.  Experiments that cannot make that promise leave it ``None``
    and are scheduled as one atomic task.

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
    run: Callable[[ExperimentScale], SweepResult] = field(repr=False)
    sweep_values: Callable[[ExperimentScale], Sequence[float]] = field(
        default=side_sweep_values, repr=False
    )
    cache_payload: Optional[Callable[[ExperimentScale], Dict[str, Any]]] = field(
        default=None, repr=False
    )
    parameter_name: str = "l"
    sweep_measure: Optional[Callable[[ExperimentScale], Any]] = field(
        default=None, repr=False
    )
    iterations_per_value: Optional[Callable[[ExperimentScale], int]] = field(
        default=None, repr=False
    )

    def run_at(self, scale: str = "default") -> SweepResult:
        """Run the experiment at a named scale preset."""
        return self.run(scale_by_name(scale))

    @property
    def supports_checkpoint(self) -> bool:
        """``True`` if ``run`` accepts a ``checkpoint`` keyword.

        Experiments whose measures are independent per parameter value
        thread the checkpoint into :func:`repro.simulation.sweep.
        sweep_parameter`; experiments with cross-value state (e.g. a
        shared sequential random stream) simply never declare the keyword
        and are cached at whole-sweep granularity only.
        """
        try:
            parameters = inspect.signature(self.run).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return False
        return "checkpoint" in parameters

    def run_with_checkpoint(
        self,
        scale: ExperimentScale,
        checkpoint: Optional[SweepCheckpoint] = None,
    ) -> SweepResult:
        """Run the experiment, threading ``checkpoint`` through if supported."""
        if checkpoint is not None and self.supports_checkpoint:
            return self.run(scale, checkpoint=checkpoint)
        return self.run(scale)

    @property
    def supports_scheduling(self) -> bool:
        """``True`` if the campaign scheduler may decompose this experiment
        into independent per-value tasks (a picklable measure factory is
        registered — see ``sweep_measure``)."""
        return self.sweep_measure is not None

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
