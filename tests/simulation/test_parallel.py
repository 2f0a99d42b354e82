"""Tests for the iteration runner's random streams and checkpoints, the
value-level parallelism built on it, and the vectorized engine.

The contract under test: every iteration owns a reproducible child stream
of the root seed, a checkpointed or resumed run is bit-identical to an
uninterrupted one, a sweep measuring its parameter values in worker
processes is bit-identical to the serial sweep (each worker runs its
value's iterations serially, starting no pool of its own), and the
vectorized per-frame reduction matches the pre-vectorization reference
implementation.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    component_growth_curve,
    component_growth_curve_reference,
    frame_statistics,
    frame_statistics_columns,
)
from repro.simulation.runner import (
    collect_frame_statistics,
    run_fixed_range,
    stationary_critical_range,
)
from repro.simulation.sweep import sweep_parameter
from repro.stats.rng import RandomSource


def parallel_config(mobility_name="drunkard", seed=99, side=200.0):
    mobility = (
        MobilitySpec.paper_drunkard(side)
        if mobility_name == "drunkard"
        else MobilitySpec.paper_waypoint(side)
    )
    return SimulationConfig(
        network=NetworkConfig(node_count=12, side=side, dimension=2),
        mobility=mobility,
        steps=6,
        iterations=5,
        seed=seed,
        transmitting_range=0.3 * side,
    )


# --------------------------------------------------------------------------- #
# Value-level parallelism: measures live at module level so they pickle.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunnerMeasure:
    """Measures one region side through one of the iteration runners."""

    runner: str

    def __call__(self, side):
        if self.runner == "stationary":
            critical = stationary_critical_range(
                15, side, iterations=12, seed=7, confidence=0.9
            )
            return {"rstationary": critical}
        if self.runner.startswith("fixed"):
            result = run_fixed_range(
                parallel_config(self.runner.split("-")[1], side=side)
            )
            connected = np.concatenate(
                [item.records.connected for item in result.iterations]
            )
            largest = np.concatenate(
                [item.records.largest_component for item in result.iterations]
            )
            return {
                "connected_fraction": float(connected.mean()),
                "mean_largest": float(largest.mean()),
            }
        statistics = collect_frame_statistics(parallel_config(side=side))
        pooled = np.concatenate([item.critical_ranges for item in statistics])
        return {"mean_critical": float(pooled.mean()),
                "max_critical": float(pooled.max())}


def _nested_pools(side):
    """Process pools one value task starts while running every runner."""
    started = []
    original = ProcessPoolExecutor.__init__

    def recording_init(self, *args, **kwargs):
        started.append(kwargs.get("max_workers"))
        original(self, *args, **kwargs)

    ProcessPoolExecutor.__init__ = recording_init
    try:
        RunnerMeasure("fixed-waypoint")(side)
        RunnerMeasure("stats")(side)
        RunnerMeasure("stationary")(side)
    finally:
        ProcessPoolExecutor.__init__ = original
    return {
        "pools": float(len(started)),
        "children": float(len(multiprocessing.active_children())),
    }


SIDES = (150.0, 200.0, 250.0, 300.0)


class TestValueLevelParallelism:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "runner", ["fixed-drunkard", "fixed-waypoint", "stats", "stationary"]
    )
    def test_parallel_sweep_is_bit_identical_to_serial(self, runner, workers):
        measure = RunnerMeasure(runner)
        serial = sweep_parameter("l", SIDES, measure)
        parallel = sweep_parameter("l", SIDES, measure, workers=workers)
        assert parallel.rows == serial.rows
        assert parallel.parameter_values == list(SIDES)

    def test_more_workers_than_values(self):
        measure = RunnerMeasure("fixed-drunkard")
        serial = sweep_parameter("l", SIDES[:2], measure)
        assert sweep_parameter("l", SIDES[:2], measure, workers=32).rows == serial.rows

    def test_value_tasks_start_no_nested_pool(self):
        sweep = sweep_parameter("l", SIDES, _nested_pools, workers=2)
        assert sweep.series("pools") == [0.0] * len(SIDES)
        assert sweep.series("children") == [0.0] * len(SIDES)


class TestRandomSourceEntropy:
    def test_entropy_of_int_seed_is_the_seed(self):
        assert RandomSource(123).entropy == 123

    def test_from_entropy_reproduces_children(self):
        source = RandomSource(None)
        clone = RandomSource.from_entropy(source.entropy)
        for index in (0, 1, 7):
            expected = source.child(index).random(5)
            assert np.array_equal(clone.child(index).random(5), expected)

    def test_entropy_seeded_run_completes(self):
        # seed=None cannot be compared against a separate run (each run
        # resolves fresh OS entropy), but it must execute and produce the
        # right shape.
        config = SimulationConfig(
            network=NetworkConfig(node_count=8, side=100.0),
            mobility=MobilitySpec.paper_drunkard(100.0),
            steps=3,
            iterations=4,
            seed=None,
            transmitting_range=40.0,
        )
        result = run_fixed_range(config)
        assert result.iteration_count == 4


class TestVectorizedEngineMatchesReference:
    def test_component_growth_curve_property(self, rng):
        """Property: the MST-sweep curve equals the dense-sweep reference on
        random placements (1-D, 2-D and 3-D, varied sizes)."""
        for dimension in (1, 2, 3):
            for n in (2, 3, 10, 40):
                for _ in range(5):
                    points = rng.uniform(0, 100, size=(n, dimension))
                    assert component_growth_curve(
                        points
                    ) == component_growth_curve_reference(points)

    def test_duplicate_points(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 1.0], [4.0, 1.0]])
        curve = component_growth_curve(points)
        assert curve[-1][1] == 4
        assert curve[-1][0] == pytest.approx(3.0)

    def test_batch_matches_single_frames(self, rng):
        frames = rng.uniform(0, 100, size=(20, 15, 2))
        batched = list(frame_statistics_columns(frames))
        assert batched == [frame_statistics(frame) for frame in frames]

    def test_batch_trivial_node_counts(self):
        assert frame_statistics_columns(np.empty((3, 1, 2)))[0].critical_range == 0.0
        assert len(frame_statistics_columns(np.empty((4, 0, 2)))) == 4


# --------------------------------------------------------------------------- #
# Iteration-granular checkpointing (PR 4)
# --------------------------------------------------------------------------- #
class RecordingIterationCheckpoint:
    """In-memory IterationCheckpoint counting loads, saves and misses."""

    def __init__(self, entries=None, fail_after=None):
        self.entries = dict(entries or {})
        self.fail_after = fail_after
        self.loads = 0
        self.saves = 0

    def load(self, index):
        result = self.entries.get(index)
        if result is not None:
            self.loads += 1
        return result

    def save(self, index, result):
        self.entries[index] = result
        self.saves += 1
        if self.fail_after is not None and self.saves >= self.fail_after:
            raise RuntimeError(f"simulated kill after {self.saves} iterations")


class TestIterationCheckpoint:
    def test_checkpointed_run_is_bit_identical(self):
        config = parallel_config()
        reference = collect_frame_statistics(parallel_config())
        checkpoint = RecordingIterationCheckpoint()
        result = collect_frame_statistics(config, checkpoint=checkpoint)
        assert result == reference
        assert checkpoint.saves == config.iterations
        assert checkpoint.loads == 0

    def test_kill_and_resume_simulates_each_iteration_once(self):
        """Interrupt after 2 of 5 iterations; the resumed run loads the
        finished iterations, simulates only the missing ones and matches
        the uninterrupted run bit for bit."""
        reference = collect_frame_statistics(parallel_config())

        killed = RecordingIterationCheckpoint(fail_after=2)
        with pytest.raises(RuntimeError, match="simulated kill"):
            collect_frame_statistics(parallel_config(), checkpoint=killed)
        assert len(killed.entries) == 2

        resumed = RecordingIterationCheckpoint(entries=killed.entries)
        config = parallel_config()
        result = collect_frame_statistics(config, checkpoint=resumed)
        assert result == reference
        assert resumed.loads == 2
        assert resumed.saves == config.iterations - 2  # zero re-simulation

    def test_fully_checkpointed_run_simulates_nothing(self):
        config = parallel_config()
        checkpoint = RecordingIterationCheckpoint()
        collect_frame_statistics(config, checkpoint=checkpoint)
        warm = RecordingIterationCheckpoint(entries=checkpoint.entries)
        result = collect_frame_statistics(config, checkpoint=warm)
        assert warm.saves == 0
        assert warm.loads == config.iterations
        assert result == collect_frame_statistics(config)

    def test_run_fixed_range_checkpoints_step_columns(self):
        """The fixed-range runner persists bare StepColumns and rebuilds
        the IterationResult wrappers from the config on load."""
        from repro.simulation.results import StepColumns

        reference = run_fixed_range(parallel_config())
        checkpoint = RecordingIterationCheckpoint()
        result = run_fixed_range(parallel_config(), checkpoint=checkpoint)
        assert result == reference
        assert checkpoint.saves == parallel_config().iterations
        assert all(
            isinstance(entry, StepColumns) for entry in checkpoint.entries.values()
        )

        warm = RecordingIterationCheckpoint(entries=checkpoint.entries)
        resumed = run_fixed_range(parallel_config(), checkpoint=warm)
        assert warm.saves == 0
        assert resumed == reference
