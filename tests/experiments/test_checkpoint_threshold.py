"""Which Figure 2–9 values checkpoint their mobile iterations.

A value gets a per-iteration checkpoint only when it simulates at least
``CHECKPOINT_MIN_NODE_FRAMES`` node-frames (n x steps x iterations);
smaller values run with none, so a campaign writes no iteration entries
for them.  The measures are driven with the simulation stubbed out, so
the decision is read off exactly what each measure hands to
``collect_frame_statistics``.
"""

from dataclasses import replace

import pytest

from repro import faults
from repro.experiments import figures
from repro.experiments.figures import (
    CHECKPOINT_MIN_NODE_FRAMES,
    ParameterStudyMeasure,
    SystemSizeMeasure,
    parameter_study_values,
)
from repro.experiments.registry import scale_by_name
from repro.faults import FaultSpec, InjectedFault
from repro.store import ResultStore, StoreSweepCheckpoint

PARAMETERS = ("pstationary", "tpause", "vmax_fraction")


class _Stop(Exception):
    """Ends a stubbed measure once it reached the mobile simulation."""


@pytest.fixture
def sweep_checkpoint(tmp_path):
    return StoreSweepCheckpoint(
        ResultStore(tmp_path / "store"), {"test": "threshold"}, iterations=1
    )


@pytest.fixture
def handed_over(monkeypatch):
    """``measure(value)`` -> (node-frames, iteration checkpoint) it used."""

    def stop(config, checkpoint=None):
        raise _Stop(config, checkpoint)

    monkeypatch.setattr(figures, "collect_frame_statistics", stop)
    monkeypatch.setattr(figures, "stationary_critical_range", lambda **_: 1.0)

    def measure_once(measure, value):
        with pytest.raises(_Stop) as stopped:
            measure(value)
        config, checkpoint = stopped.value.args
        node_frames = config.network.node_count * config.steps * config.iterations
        return node_frames, checkpoint

    return measure_once


def system_size_measure(scale, checkpoint):
    return SystemSizeMeasure(model="waypoint", scale=scale).with_value_checkpoint(
        checkpoint
    )


class TestBoundary:
    @pytest.mark.parametrize(
        "side, steps, iterations, offset",
        [
            (729.0, 37_037, 1, -1),  # n = 27
            (256.0, 62_500, 1, 0),  # n = 16
            (256.0, 20_834, 3, 32),  # n = 16
        ],
    )
    def test_system_size_value_at_the_constant(
        self, handed_over, sweep_checkpoint, side, steps, iterations, offset
    ):
        scale = replace(scale_by_name("smoke"), steps=steps, iterations=iterations)
        node_frames, checkpoint = handed_over(
            system_size_measure(scale, sweep_checkpoint), side
        )
        assert node_frames == CHECKPOINT_MIN_NODE_FRAMES + offset
        assert (checkpoint is not None) == (offset >= 0)

    @pytest.mark.parametrize("steps, offset", [(15_624, -64), (15_625, 0)])
    def test_parameter_study_value_at_the_constant(
        self, handed_over, sweep_checkpoint, steps, offset
    ):
        # Default-scale parameter studies run n = 64 nodes.
        scale = replace(scale_by_name("default"), steps=steps, iterations=1)
        measure = ParameterStudyMeasure(
            scale=scale, parameter="tpause"
        ).with_value_checkpoint(sweep_checkpoint)
        node_frames, checkpoint = handed_over(measure, 2000.0)
        assert node_frames == CHECKPOINT_MIN_NODE_FRAMES + offset
        assert (checkpoint is not None) == (offset >= 0)


class TestPresets:
    @pytest.mark.parametrize(
        "preset, checkpointed",
        [("smoke", False), ("default", False), ("paper", True)],
    )
    def test_figures_2_to_6(
        self, handed_over, sweep_checkpoint, preset, checkpointed
    ):
        scale = scale_by_name(preset)
        for side in scale.sides:
            node_frames, checkpoint = handed_over(
                system_size_measure(scale, sweep_checkpoint), side
            )
            assert (node_frames >= CHECKPOINT_MIN_NODE_FRAMES) == checkpointed
            assert (checkpoint is not None) == checkpointed, side

    @pytest.mark.parametrize(
        "preset, checkpointed",
        [("smoke", False), ("default", False), ("paper", True)],
    )
    def test_figures_7_to_9(
        self, handed_over, sweep_checkpoint, preset, checkpointed
    ):
        scale = scale_by_name(preset)
        for parameter in PARAMETERS:
            measure = ParameterStudyMeasure(
                scale=scale, parameter=parameter
            ).with_value_checkpoint(sweep_checkpoint)
            for value in parameter_study_values(parameter, scale):
                node_frames, checkpoint = handed_over(measure, value)
                assert (node_frames >= CHECKPOINT_MIN_NODE_FRAMES) == checkpointed
                assert (checkpoint is not None) == checkpointed, (parameter, value)


class _Recording:
    """A sweep checkpoint that keeps the iteration checkpoints it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.handed = []

    def load(self, value):
        return self.inner.load(value)

    def save(self, value, row):
        self.inner.save(value, row)

    def iteration_checkpoint(self, value):
        sub = self.inner.iteration_checkpoint(value)
        self.handed.append(sub)
        return sub


def _measures(scale):
    return {
        "system-size": (SystemSizeMeasure(model="drunkard", scale=scale), 256.0),
        "parameter-study": (
            ParameterStudyMeasure(scale=scale, parameter="pstationary"),
            0.5,
        ),
    }


class TestResumeAboveTheConstant:
    ITERATIONS = 3

    @pytest.mark.parametrize("kind", ["system-size", "parameter-study"])
    @pytest.mark.parametrize("killed_after", [1, 2])
    def test_killed_value_resumes_at_its_first_unfinished_iteration(
        self, tmp_path, monkeypatch, kind, killed_after
    ):
        scale = replace(
            scale_by_name("smoke"),
            steps=6,
            iterations=self.ITERATIONS,
            stationary_iterations=5,
        )
        measure, value = _measures(scale)[kind]
        reference = measure(value)

        # Every value of this scale is above a lowered constant.
        monkeypatch.setattr(figures, "CHECKPOINT_MIN_NODE_FRAMES", 1)
        store = ResultStore(tmp_path / "store")
        checkpoint = StoreSweepCheckpoint(
            store, {"test": kind}, iterations=self.ITERATIONS
        )
        kill = FaultSpec(site="iteration", action="raise", at=killed_after + 1)
        with faults.active([kill], tmp_path / "faults"):
            with pytest.raises(InjectedFault):
                measure.with_value_checkpoint(checkpoint)(value)

        recording = _Recording(checkpoint)
        resumed = measure.with_value_checkpoint(recording)(value)
        (iterations,) = recording.handed
        assert iterations.loaded == killed_after
        assert iterations.saved == self.ITERATIONS - killed_after
        assert resumed == reference
