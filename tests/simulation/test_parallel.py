"""Tests for the iteration runner's random streams and checkpoints, the
value-level parallelism built on it, and the vectorized engine.

The contract under test: every iteration owns a reproducible child stream
of the root seed, a checkpointed or resumed run is bit-identical to an
uninterrupted one, a sweep whose parameter values run as tasks in the
campaign scheduler's pool is bit-identical to ``Experiment.run`` (each
worker runs its value's iterations serially, starting no pool of its
own), and the vectorized per-frame reduction matches the
pre-vectorization reference implementation.
"""

import multiprocessing
from dataclasses import dataclass
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.engine import (
    component_growth_curve,
    component_growth_curve_reference,
    frame_statistics,
    frame_statistics_columns,
)
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import (
    collect_frame_statistics,
    stationary_critical_range,
)
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
    )


# --------------------------------------------------------------------------- #
# Value-level parallelism: measures live at module level so they pickle.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunnerMeasure:
    """Measures one region side through one of the iteration runners.

    ``stats-<model>`` collects the frame statistics of a mobile run and
    reads critical-range summaries and the fixed-range answers at 0.3 l
    off them; ``stationary`` estimates ``rstationary``.
    """

    runner: str

    def __call__(self, side):
        if self.runner == "stationary":
            critical = stationary_critical_range(
                15, side, iterations=12, seed=7, confidence=0.9
            )
            return {"rstationary": critical}
        statistics = collect_frame_statistics(
            parallel_config(self.runner.split("-")[1], side=side)
        )
        pooled = FrameStatisticsColumns.concatenate(statistics)
        radius = 0.3 * side
        return {
            "mean_critical": float(pooled.critical_ranges.mean()),
            "max_critical": float(pooled.critical_ranges.max()),
            "connected_fraction": float(pooled.connected_at(radius).mean()),
            "mean_largest": float(pooled.largest_component_sizes_at(radius).mean()),
        }


def _nested_pools(side):
    """Processes one value task starts while running every runner."""
    started = []
    original = BaseProcess.start

    def recording_start(self):
        started.append(self.name)
        original(self)

    BaseProcess.start = recording_start
    try:
        RunnerMeasure("stats-waypoint")(side)
        RunnerMeasure("stationary")(side)
    finally:
        BaseProcess.start = original
    return {
        "pools": float(len(started)),
        "children": float(len(multiprocessing.active_children())),
    }


SIDES = (150.0, 200.0, 250.0, 300.0)


class TestValueLevelParallelism:
    """The campaign scheduler's pool against ``Experiment.run``."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "runner", ["stats-drunkard", "stats-waypoint", "stationary"]
    )
    def test_parallel_sweep_is_bit_identical_to_serial(
        self, runner, workers, serial_sweep, campaign_sweep
    ):
        measure = RunnerMeasure(runner)
        serial = serial_sweep("l", SIDES, measure)
        parallel = campaign_sweep("l", SIDES, measure, workers=workers)
        assert parallel.rows == serial.rows
        assert parallel.parameter_values == list(SIDES)

    def test_more_workers_than_values(self, serial_sweep, campaign_sweep):
        measure = RunnerMeasure("stats-drunkard")
        serial = serial_sweep("l", SIDES[:2], measure)
        parallel = campaign_sweep("l", SIDES[:2], measure, workers=32)
        assert parallel.rows == serial.rows

    def test_value_tasks_start_no_nested_pool(self, campaign_sweep):
        sweep = campaign_sweep("l", SIDES, _nested_pools, workers=2)
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
        )
        result = collect_frame_statistics(config)
        assert len(result) == 4
        assert all(len(frames) == 3 for frames in result)


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

    def test_flat_input_is_a_line(self):
        line = np.array([0.0, 1.0, 3.0, 7.0])
        expected = ((1.0, 2), (2.0, 3), (4.0, 4))
        assert component_growth_curve(line) == expected
        assert component_growth_curve_reference(line) == expected

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
