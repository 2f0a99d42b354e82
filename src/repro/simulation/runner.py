"""Multi-iteration simulation runners.

The paper averages every reported quantity over 50 independent simulations
of 10 000 mobility steps each.  The runners here execute those iterations
with independent, reproducible random streams derived from a single root
seed (see :class:`repro.stats.rng.RandomSource`).

Execution
---------
Iteration ``i`` always consumes the stream ``RandomSource(seed).child(i)``,
and the root entropy is resolved *once* per run (so even ``seed=None``
runs hand every iteration the same root).  The iterations of one
configuration run serially in the calling process: the parallel unit of
work is the parameter value, which the sweep pool, the campaign scheduler
and the distributed work queue each run as one task.

Results come back in the columnar containers of
:mod:`repro.simulation.results` (:class:`~repro.simulation.results.
StepColumns` per fixed-range iteration, :class:`~repro.simulation.results.
FrameStatisticsColumns` per trace-statistics iteration), so a 10 000-step
iteration is a handful of NumPy arrays instead of 10 000 per-step
dataclasses.

Per-iteration checkpointing
---------------------------
Both runners accept a *checkpoint* implementing the
:class:`IterationCheckpoint` protocol.  Iterations whose results
``load(index)`` returns are not simulated again, and every freshly
simulated iteration is handed to ``save(index, result)`` the moment it
exists, so a killed paper-scale run (50 iterations of 10 000 steps)
resumes at the first unfinished *iteration* instead of redoing the whole
configuration.  Because
iteration ``i`` always consumes child stream ``i``, a resumed run is
bit-identical to an uninterrupted one.  The store-backed implementation
is :class:`repro.store.checkpoints.StoreIterationCheckpoint`; this module
only defines the protocol so the simulation layer stays storage-free.
Whether a value passes a checkpoint at all is the experiment layer's
choice (see :func:`repro.experiments.figures.value_iteration_checkpoint`).

Stationary placements
---------------------
:func:`stationary_critical_range` draws placement ``i`` on child stream
``i`` too, but a placement is a single frame, far too little work to be
an iteration of its own: it is never checkpointed, and the placements are
reduced together in batches of
:func:`~repro.simulation.engine.frames_per_batch` frames, like the frames
of one mobile trajectory.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

import numpy as np

from repro import faults, telemetry
from repro.exceptions import ConfigurationError
from repro.mobility.stationary import StationaryModel
from repro.simulation.config import NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    FrameStatisticsColumns,
    frame_statistics_columns,
    frames_per_batch,
    simulate_frame_statistics,
    simulate_iteration,
)
from repro.simulation.metrics import range_for_connectivity_fraction
from repro.simulation.results import IterationResult, MobileRunResult
from repro.stats.rng import RandomSource

ResultT = TypeVar("ResultT")


class IterationCheckpoint:
    """Protocol of a per-iteration checkpoint (duck-typed).

    ``load`` returns the previously simulated result of iteration
    ``index`` — a :class:`~repro.simulation.results.StepColumns` for
    fixed-range runs, a :class:`FrameStatisticsColumns` for
    trace-statistics runs — or ``None`` when the iteration must be
    (re)simulated; ``save`` persists one freshly simulated iteration.
    Both are called in the process running the iterations, in index
    order.
    """

    def load(self, index: int) -> Optional[object]:  # pragma: no cover
        raise NotImplementedError

    def save(self, index: int, result: object) -> None:  # pragma: no cover
        raise NotImplementedError


class _FixedRangeCheckpoint:
    """Adapter persisting only each iteration's :class:`StepColumns`.

    The surrounding :class:`~repro.simulation.results.IterationResult` is
    pure configuration (index, node count, range) and is rebuilt from the
    config on load, so the store only ever holds the columnar containers
    the codecs already understand.
    """

    def __init__(self, checkpoint: IterationCheckpoint, config: SimulationConfig) -> None:
        self._checkpoint = checkpoint
        self._config = config

    def load(self, index: int) -> Optional[IterationResult]:
        records = self._checkpoint.load(index)
        if records is None:
            return None
        return IterationResult(
            iteration=index,
            node_count=self._config.network.node_count,
            transmitting_range=self._config.transmitting_range,
            records=records,
        )

    def save(self, index: int, result: IterationResult) -> None:
        self._checkpoint.save(index, result.records)


def _fixed_range_iteration(
    index: int, config: SimulationConfig, entropy: int
) -> IterationResult:
    """Run fixed-range iteration ``index`` on its own child stream."""
    faults.fire("iteration", context=f"iteration={index}")
    with telemetry.span("iteration", index=index, mode="fixed"):
        rng = RandomSource.from_entropy(entropy).child(index)
        return simulate_iteration(
            network=config.network,
            mobility=config.mobility,
            steps=config.steps,
            transmitting_range=config.transmitting_range,
            rng=rng,
            iteration=index,
        )


def _frame_statistics_iteration(
    index: int, config: SimulationConfig, entropy: int
) -> FrameStatisticsColumns:
    """Run trace-statistics iteration ``index`` on its own child stream."""
    faults.fire("iteration", context=f"iteration={index}")
    with telemetry.span("iteration", index=index, mode="stats"):
        rng = RandomSource.from_entropy(entropy).child(index)
        return simulate_frame_statistics(
            network=config.network,
            mobility=config.mobility,
            steps=config.steps,
            rng=rng,
        )


def _map_iterations(
    task: Callable[[int, SimulationConfig, int], ResultT],
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
) -> List[ResultT]:
    """Run every iteration index in order and return the results.

    With a ``checkpoint``, previously saved iterations are loaded instead
    of simulated and fresh ones are saved as soon as they complete, so a
    killed run loses at most the iteration in progress.
    """
    entropy = RandomSource(config.seed).entropy
    results: List[ResultT] = []
    for index in range(config.iterations):
        result = checkpoint.load(index) if checkpoint is not None else None
        if result is None:
            result = task(index, config, entropy)
            if checkpoint is not None:
                checkpoint.save(index, result)
        results.append(result)
    return results


def run_fixed_range(
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
) -> MobileRunResult:
    """Run the paper's simulator: fixed range, all iterations.

    With a ``checkpoint``, each iteration's
    :class:`~repro.simulation.results.StepColumns` is persisted as it
    completes and loaded instead of resimulated on the next run.

    Raises:
        ConfigurationError: if ``config.transmitting_range`` is not set.
    """
    if config.transmitting_range is None:
        raise ConfigurationError(
            "run_fixed_range requires config.transmitting_range to be set; "
            "use collect_frame_statistics / estimate_thresholds to derive ranges"
        )
    adapter = (
        _FixedRangeCheckpoint(checkpoint, config)
        if checkpoint is not None
        else None
    )
    iterations = _map_iterations(_fixed_range_iteration, config, checkpoint=adapter)
    return MobileRunResult(
        transmitting_range=config.transmitting_range,
        node_count=config.network.node_count,
        iterations=tuple(iterations),
    )


def collect_frame_statistics(
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
) -> List[FrameStatisticsColumns]:
    """Run all iterations in trace-statistics mode.

    Returns one columnar sequence of :class:`FrameStatistics` per
    iteration.  The random
    streams are the same as :func:`run_fixed_range` uses for the same seed,
    so thresholds derived from these statistics are consistent with
    fixed-range runs on the same configuration.  With a per-iteration
    ``checkpoint``, each iteration's :class:`FrameStatisticsColumns` is
    persisted as it completes and saved iterations resume without
    resimulation.
    """
    return _map_iterations(_frame_statistics_iteration, config, checkpoint=checkpoint)


def stationary_critical_range(
    node_count: int,
    side: float,
    dimension: int = 2,
    iterations: int = 100,
    seed: Optional[int] = None,
    confidence: float = 0.99,
    placement: str = "uniform",
) -> float:
    """Estimate ``rstationary``: the range connecting random static placements.

    The paper takes its ``rstationary`` values from the stationary
    simulations of [1, 11], where the critical range is the value at which
    the great majority of random placements are connected.  Here we draw
    ``iterations`` independent placements, compute the exact critical range
    of each (longest MST edge), and return the ``confidence``-quantile of
    those values — i.e. the range at which a fraction ``confidence`` of
    random placements is connected.

    Placement ``i`` is drawn on child stream ``i`` of ``seed`` and bound
    to a :class:`~repro.mobility.stationary.StationaryModel` (which checks
    its dimension and that it lies in the region), as a one-step
    simulation would; the placements are then reduced by
    :func:`~repro.simulation.engine.frame_statistics_columns` in batches
    of :func:`~repro.simulation.engine.frames_per_batch` frames
    (``_TRAJECTORY_BATCH_ELEMENTS // n``).  The batched kernel treats
    every frame independently, so the result is bit-identical to reducing
    each placement on its own.

    Args:
        node_count: number of nodes ``n``.
        side: region side ``l``.
        dimension: region dimension (2 in the paper's mobile study).
        iterations: number of independent placements to draw.
        seed: root seed for reproducibility.
        confidence: the quantile of per-placement critical ranges returned;
            1.0 returns the maximum observed.
        placement: placement strategy name (default ``uniform``).
    """
    if not 0.0 < confidence <= 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1], got {confidence}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be at least 1, got {iterations}")
    network = NetworkConfig(
        node_count=node_count, side=side, dimension=dimension, placement=placement
    )
    region = network.region
    source = RandomSource(seed)
    batch_size = frames_per_batch(node_count)
    parts: List[FrameStatisticsColumns] = []
    with telemetry.span("stationary", placements=iterations):
        for start in range(0, iterations, batch_size):
            frames = []
            for index in range(start, min(start + batch_size, iterations)):
                rng = source.child(index)
                positions = network.placement_strategy(node_count, region, rng)
                frames.append(StationaryModel().initialize(positions, region, rng))
            parts.append(frame_statistics_columns(np.stack(frames)))
    pooled = FrameStatisticsColumns.concatenate(parts)
    return range_for_connectivity_fraction(pooled, confidence)
