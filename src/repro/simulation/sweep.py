"""Parameter sweeps.

Every figure of the paper is a sweep of one parameter (system side ``l``,
``pstationary``, ``tpause`` or ``vmax``) against one or more derived
quantities.  :func:`sweep_parameter` runs such a sweep generically and
returns a :class:`SweepResult` that the experiment layer renders as a
table.

Sweep-level fan-out
-------------------
Parameter values are independent, so a sweep can run them concurrently in
a process pool (``workers > 1``).  That requires the measure to be
*picklable*: a module-level callable such as the per-experiment measure
dataclasses in :mod:`repro.experiments.figures` — see the :class:`Measure`
protocol.  A value is the unit of parallel work: its measure runs its
simulation iterations serially inside the worker, so no pool ever starts
another pool.  Results are bit-identical for every ``workers`` value —
each measure call is deterministic given the seed it carries.

Checkpointing
-------------
A sweep keeps no checkpoint of its own: value rows are loaded and saved
by the campaign scheduler (:mod:`repro.campaigns.scheduler`), which runs
one value per task.  A measure that runs multi-iteration simulations may
instead be bound to a :class:`SweepCheckpoint` (see
:meth:`Measure.with_value_checkpoint` and :meth:`repro.experiments.
registry.Experiment.measure_for`) and thread its per-value iteration
checkpoint into its inner :func:`repro.simulation.runner.
collect_frame_statistics` call, so a killed paper-scale value resumes
at the first unfinished *iteration*.  The store-backed implementation
lives in :mod:`repro.store.checkpoints`; this module only defines the
protocol so the simulation layer stays free of storage dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro import faults, telemetry
from repro.exceptions import ConfigurationError
from repro.supervision import run_supervised


class SweepCheckpoint:
    """Protocol of the checkpoint a measure is bound with (duck-typed).

    Measures only ask it for per-iteration checkpoints.  The store-backed
    implementation (:class:`repro.store.checkpoints.StoreSweepCheckpoint`)
    also loads and saves whole value rows for the campaign scheduler.
    """

    def iteration_checkpoint(self, value: float):
        """Per-iteration checkpoint of one parameter value, or ``None``.

        The store-backed implementation returns an object implementing
        the :class:`repro.simulation.runner.IterationCheckpoint`
        protocol, keyed disjointly from the value rows.  Called in
        whichever process runs the measure — the returned object (and
        ``self``, which measures capture when rebound) must be picklable.
        """
        return None


class Measure:
    """Protocol of a sweep measure (duck-typed; subclassing is optional).

    A measure maps one parameter value to a dict of measured series:
    ``measure(value) -> {"series": number, ...}``.  Plain callables
    (including lambdas) work for serial sweeps; parallel sweeps
    (``workers > 1``) additionally need the measure to be picklable, i.e.
    defined at module level — the experiment layer uses frozen dataclasses.

    A measure that supports iteration-granular checkpointing additionally
    implements ``with_value_checkpoint(checkpoint)`` returning a copy that
    asks ``checkpoint.iteration_checkpoint(value)`` for a per-iteration
    checkpoint when measuring ``value`` and threads it into its inner
    simulation runs (see :meth:`repro.experiments.registry.Experiment.
    measure_for`).
    """

    def __call__(self, value: float) -> Dict[str, float]:  # pragma: no cover
        raise NotImplementedError

    def with_value_checkpoint(
        self, checkpoint: SweepCheckpoint
    ) -> "Measure":  # pragma: no cover
        raise NotImplementedError


def iteration_checkpoint_for(checkpoint, value: float):
    """The per-iteration checkpoint a measure should use for ``value``.

    Helper for :meth:`Measure.with_value_checkpoint` implementations:
    duck-types ``checkpoint.iteration_checkpoint`` so hand-rolled
    checkpoint objects without the hook (and ``None``) simply disable
    iteration granularity.
    """
    if checkpoint is None:
        return None
    factory = getattr(checkpoint, "iteration_checkpoint", None)
    if factory is None:
        return None
    return factory(value)


@dataclass
class SweepResult:
    """Tabular result of a one-parameter sweep.

    Attributes:
        parameter_name: name of the swept parameter (e.g. ``"l"``).
        rows: one dict per parameter value; every dict contains the
            parameter value under ``parameter_name`` plus one entry per
            measured series.
    """

    parameter_name: str
    rows: List[Dict[str, float]] = field(default_factory=list)

    @property
    def parameter_values(self) -> List[float]:
        """The swept values, in row order."""
        return [row[self.parameter_name] for row in self.rows]

    def series(self, name: str) -> List[float]:
        """One measured series across the sweep, in row order."""
        return [row[name] for row in self.rows]

    def series_names(self) -> List[str]:
        """Names of all measured series (excluding the parameter itself).

        The union of the keys of *all* rows, in first-appearance order —
        a measure that only reports a series at some parameter values (e.g.
        a threshold that exists only above a critical size) still has it
        listed.
        """
        names: List[str] = []
        seen = set()
        for row in self.rows:
            for key in row:
                if key != self.parameter_name and key not in seen:
                    seen.add(key)
                    names.append(key)
        return names

    def as_dicts(self) -> List[Dict[str, float]]:
        """The raw rows (shared reference; callers should not mutate)."""
        return self.rows


def measure_row(
    parameter_name: str,
    measure: Callable[[float], Dict[str, float]],
    value: float,
) -> Dict[str, float]:
    """One sweep row: the parameter value plus its measured series.

    Module-level (and pickled by reference) so both this module's sweep
    pool and the campaign scheduler's shared pool submit it directly as
    the worker-process body of one parameter value.
    """
    faults.fire("measure", context=f"{parameter_name}={value:g}")
    with telemetry.span("task", parameter=parameter_name, value=float(value)):
        row: Dict[str, float] = {parameter_name: float(value)}
        row.update(dict(measure(value)))
        return row


def sweep_parameter(
    parameter_name: str,
    parameter_values: Sequence[float],
    measure: Callable[[float], Dict[str, float]],
    workers: int = 1,
) -> SweepResult:
    """Run ``measure`` at every parameter value and tabulate the results.

    Args:
        parameter_name: column name of the swept parameter.
        parameter_values: values to sweep, in order.
        measure: callable returning a dict of measured series for one
            value; must be picklable (module-level, e.g. a
            :class:`Measure` dataclass) when ``workers > 1``.
        workers: parameter values measured concurrently.  1 (default) runs
            the sweep serially in-process; larger values fan the sweep out
            over a process pool.  Results are bit-identical either way and
            rows always come back in ``parameter_values`` order.

    The parallel path fails fast: the first task exception or worker
    crash propagates.  Retries belong to :mod:`repro.campaigns`, whose
    scheduler carries a retry policy.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    values = list(parameter_values)
    worker_count = min(workers, len(values)) if values else 1
    if worker_count <= 1:
        rows = [measure_row(parameter_name, measure, value) for value in values]
    else:
        by_index: Dict[int, Dict[str, float]] = {}

        def submit_value(pool, index):
            # Carry the ambient span context into the worker; identity
            # when telemetry is inactive.
            return pool.submit(
                telemetry.propagate(measure_row),
                parameter_name,
                measure,
                values[index],
            )

        def consume(index, row):
            by_index[index] = row

        run_supervised(
            range(len(values)),
            budget=worker_count,
            submit=submit_value,
            on_result=consume,
        )
        rows = [by_index[index] for index in range(len(values))]
    return SweepResult(parameter_name=parameter_name, rows=rows)
