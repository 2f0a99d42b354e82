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
work is the parameter value, which the campaign scheduler's pool and the
distributed work queue each run as one task
(:func:`repro.simulation.sweep.measure_row`).

Each iteration comes back as one columnar
:class:`~repro.simulation.results.FrameStatisticsColumns`, so a
10 000-step iteration is a handful of NumPy arrays instead of 10 000
per-step objects.  A fixed-range question (is step ``i`` connected at
``r``, how large is its largest component) is a query on those columns:
:meth:`~repro.simulation.results.FrameStatisticsColumns.connected_at` and
:meth:`~repro.simulation.results.FrameStatisticsColumns.
largest_component_sizes_at`.

Per-iteration checkpointing
---------------------------
:func:`collect_frame_statistics` accepts a *checkpoint* implementing the
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

from typing import List, Optional

import numpy as np

from repro import faults, telemetry
from repro.exceptions import ConfigurationError
from repro.mobility.stationary import StationaryModel
from repro.placement.strategies import uniform_placement
from repro.simulation.config import NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    FrameStatisticsColumns,
    frame_statistics_columns,
    frames_per_batch,
    simulate_frame_statistics,
)
from repro.simulation.metrics import range_for_connectivity_fraction
from repro.stats.rng import RandomSource


class IterationCheckpoint:
    """Protocol of a per-iteration checkpoint (duck-typed).

    ``load`` returns the previously simulated
    :class:`FrameStatisticsColumns` of iteration ``index``, or ``None``
    when the iteration must be (re)simulated; ``save`` persists one
    freshly simulated iteration.  Both are called in the process running
    the iterations, in index order.
    """

    def load(self, index: int) -> Optional[FrameStatisticsColumns]:
        raise NotImplementedError  # pragma: no cover

    def save(self, index: int, result: FrameStatisticsColumns) -> None:
        raise NotImplementedError  # pragma: no cover


def _frame_statistics_iteration(
    index: int, config: SimulationConfig, entropy: int
) -> FrameStatisticsColumns:
    """Run iteration ``index`` on its own child stream."""
    faults.fire("iteration", context=f"iteration={index}")
    with telemetry.span("iteration", index=index):
        rng = RandomSource.from_entropy(entropy).child(index)
        return simulate_frame_statistics(
            network=config.network,
            mobility=config.mobility,
            steps=config.steps,
            rng=rng,
        )


def collect_frame_statistics(
    config: SimulationConfig,
    checkpoint: Optional[IterationCheckpoint] = None,
) -> List[FrameStatisticsColumns]:
    """Run every iteration and return one :class:`FrameStatisticsColumns` each.

    Iterations run in index order.  With a ``checkpoint``, previously
    saved iterations are loaded instead of simulated and fresh ones are
    saved as soon as they complete, so a killed run loses at most the
    iteration in progress.
    """
    entropy = RandomSource(config.seed).entropy
    results: List[FrameStatisticsColumns] = []
    for index in range(config.iterations):
        result = checkpoint.load(index) if checkpoint is not None else None
        if result is None:
            result = _frame_statistics_iteration(index, config, entropy)
            if checkpoint is not None:
                checkpoint.save(index, result)
        results.append(result)
    return results


def stationary_critical_range(
    node_count: int,
    side: float,
    dimension: int = 2,
    iterations: int = 100,
    seed: Optional[int] = None,
    confidence: float = 0.99,
) -> float:
    """Estimate ``rstationary``: the range connecting random static placements.

    The paper takes its ``rstationary`` values from the stationary
    simulations of [1, 11], where the critical range is the value at which
    the great majority of random placements are connected.  Here we draw
    ``iterations`` independent placements, compute the exact critical range
    of each (longest MST edge), and return the ``confidence``-quantile of
    those values — i.e. the range at which a fraction ``confidence`` of
    random placements is connected.

    Placement ``i`` is drawn uniformly on child stream ``i`` of ``seed``
    and bound to a :class:`~repro.mobility.stationary.StationaryModel`
    (which checks its dimension and that it lies in the region), as a
    one-step simulation would; the placements are then reduced by
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
    """
    if not 0.0 < confidence <= 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1], got {confidence}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be at least 1, got {iterations}")
    region = NetworkConfig(
        node_count=node_count, side=side, dimension=dimension
    ).region
    source = RandomSource(seed)
    batch_size = frames_per_batch(node_count)
    parts: List[FrameStatisticsColumns] = []
    with telemetry.span("stationary", placements=iterations):
        for start in range(0, iterations, batch_size):
            frames = []
            for index in range(start, min(start + batch_size, iterations)):
                rng = source.child(index)
                positions = uniform_placement(node_count, region, rng)
                frames.append(StationaryModel().initialize(positions, region, rng))
            parts.append(frame_statistics_columns(np.stack(frames)))
    pooled = FrameStatisticsColumns.concatenate(parts)
    return range_for_connectivity_fraction(pooled, confidence)
