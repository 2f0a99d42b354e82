"""Bounded trajectory batches: bit-identical to one-shot simulation.

The engine never materialises a whole trajectory: it pulls frames from
the mobility model in bounded ``(k, n, d)`` batches
(``_iter_trajectory_batches``, capped by ``_TRAJECTORY_BATCH_ELEMENTS``)
and reduces each batch on its own.  The contract is that cutting a
trajectory at *any* batch boundaries produces exactly the containers of a
run that reduces it in one batch and leaves the random stream at the same
position.  Checked here, with the cap forced down so a short trajectory
spans many batches:

* ``collect_frame_statistics`` equals the one-batch run for every
  mobility model and batch size (hypothesis-driven sizes included), and
  so do its fixed-range answers;
* the batches stitch back into ``model.trajectory(steps)`` and consume
  exactly its draws;
* batch sizes follow the ``(B, n)`` element cap;
* per-batch reductions concatenate to the whole-trajectory reduction;
* batched runs save and resume the same per-iteration checkpoints.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.engine as engine
from repro.geometry.region import Region
from repro.placement.strategies import uniform_placement
from repro.simulation.config import MobilitySpec, NetworkConfig, SimulationConfig
from repro.simulation.engine import frame_statistics_columns
from repro.simulation.results import FrameStatisticsColumns
from repro.simulation.runner import collect_frame_statistics

SIDE = 90.0
NODES = 11
#: The fixed range the fixed-range answers are read at.
RADIUS = 0.35 * SIDE

MOBILITY_SPECS = {
    "stationary": MobilitySpec.stationary(),
    "waypoint": MobilitySpec.paper_waypoint(SIDE, tpause=4),
    "drunkard": MobilitySpec.paper_drunkard(SIDE),
    # The Figure 2 preset, and the last values of the Figure 7-9
    # parameter studies.
    "waypoint-paper": MobilitySpec.paper_waypoint(SIDE),
    "waypoint-all-stationary": MobilitySpec.paper_waypoint(SIDE, pstationary=1.0),
    "waypoint-long-pause": MobilitySpec.paper_waypoint(SIDE, tpause=10000),
    "waypoint-fastest": MobilitySpec.paper_waypoint(SIDE, vmax=0.5 * SIDE),
}


def make_config(mobility_name, steps=31, iterations=2):
    return SimulationConfig(
        network=NetworkConfig(node_count=NODES, side=SIDE, dimension=2),
        mobility=MOBILITY_SPECS[mobility_name],
        steps=steps,
        iterations=iterations,
        seed=20020623,
    )


def cap_batches(monkeypatch, frames):
    """Shrink the engine's element cap to ``frames`` frames per batch."""
    monkeypatch.setattr(engine, "_TRAJECTORY_BATCH_ELEMENTS", frames * NODES)


def initialized_model(config, seed):
    """A model bound to the run's placement, plus the generator driving it."""
    rng = np.random.default_rng(seed)
    region = config.network.region
    placement = uniform_placement(config.network.node_count, region, rng)
    model = config.mobility.create()
    model.initialize(placement, region, rng)
    return model, rng


class TestBatchedEquality:
    @pytest.mark.parametrize("name", sorted(MOBILITY_SPECS))
    @pytest.mark.parametrize("batch_frames", [1, 7, 16, 30])
    def test_frame_statistics_all_models_and_batch_sizes(
        self, name, batch_frames, monkeypatch
    ):
        config = make_config(name)
        whole = collect_frame_statistics(config)
        cap_batches(monkeypatch, batch_frames)
        batched = collect_frame_statistics(config)
        assert len(whole) == len(batched)
        assert all(a == b for a, b in zip(whole, batched))

    @pytest.mark.parametrize("name", ["waypoint", "drunkard", "waypoint-fastest"])
    def test_fixed_range_matches_one_batch(self, name, monkeypatch):
        def answers(statistics):
            return [
                (
                    frames.connected_at(RADIUS).tolist(),
                    frames.largest_component_sizes_at(RADIUS).tolist(),
                )
                for frames in statistics
            ]

        config = make_config(name)
        whole = answers(collect_frame_statistics(config))
        for batch_frames in (5, 12):
            cap_batches(monkeypatch, batch_frames)
            assert answers(collect_frame_statistics(config)) == whole

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(MOBILITY_SPECS)))
    def test_hypothesis_batch_boundaries(self, data, name):
        """Arbitrary batch sizes reproduce the one-batch run."""
        steps = 23
        config = make_config(name, steps=steps, iterations=1)
        whole = collect_frame_statistics(config)
        batch_frames = data.draw(
            st.integers(min_value=1, max_value=steps - 1), label="batch_frames"
        )
        with pytest.MonkeyPatch.context() as patch:
            cap_batches(patch, batch_frames)
            batched = collect_frame_statistics(config)
        assert all(a == b for a, b in zip(whole, batched))


class TestBatchStream:
    @pytest.mark.parametrize("name", sorted(MOBILITY_SPECS))
    def test_batches_stitch_to_the_serial_trajectory(self, name, monkeypatch):
        """Stitched batch frames == one trajectory call, same draws consumed."""
        config = make_config(name, steps=50)
        serial_model, serial_rng = initialized_model(config, 11)
        serial = serial_model.trajectory(config.steps, serial_rng)

        cap_batches(monkeypatch, 13)
        model, rng = initialized_model(config, 11)
        batches = list(engine._iter_trajectory_batches(model, config.steps, rng))
        assert [batch.shape[0] for batch in batches] == [13, 13, 13, 11]
        assert np.array_equal(np.concatenate(batches), serial)
        assert np.array_equal(serial_rng.random(8), rng.random(8))
        assert model.state.step_index == serial_model.state.step_index

    @pytest.mark.parametrize(
        "node_count,dimension", [(1, 2), (2, 1), (11, 2), (40, 3)]
    )
    def test_batch_sizes_respect_the_element_cap(
        self, node_count, dimension, monkeypatch
    ):
        monkeypatch.setattr(engine, "_TRAJECTORY_BATCH_ELEMENTS", 30)
        region = Region(side=SIDE, dimension=dimension)
        rng = np.random.default_rng(4)
        model = MOBILITY_SPECS["drunkard"].create()
        model.initialize(region.sample_uniform(node_count, rng), region, rng)
        steps = 37
        batches = list(engine._iter_trajectory_batches(model, steps, rng))
        assert sum(batch.shape[0] for batch in batches) == steps
        assert all(batch.shape[1:] == (node_count, dimension) for batch in batches)
        # The cap counts (B, n) kernel elements, whatever the dimension;
        # at least one frame per batch, even when one frame exceeds it.
        allowed = max(1, 30 // node_count)
        assert all(1 <= batch.shape[0] <= allowed for batch in batches)
        assert all(batch.shape[0] == allowed for batch in batches[:-1])

    def test_statistics_of_batches_concatenate_to_the_whole(self):
        config = make_config("waypoint", steps=40)
        model, rng = initialized_model(config, 5)
        frames = model.trajectory(config.steps, rng)
        parts = [frame_statistics_columns(frames[start:start + 9])
                 for start in range(0, config.steps, 9)]
        assert FrameStatisticsColumns.concatenate(parts) == frame_statistics_columns(
            frames
        )

    def test_fixed_range_columns_of_batches_concatenate_to_the_whole(self):
        config = make_config("drunkard", steps=40)
        model, rng = initialized_model(config, 6)
        frames = model.trajectory(config.steps, rng)

        def answers(batches):
            columns = [frame_statistics_columns(batch) for batch in batches]
            return (
                np.concatenate([part.connected_at(RADIUS) for part in columns]),
                np.concatenate(
                    [part.largest_component_sizes_at(RADIUS) for part in columns]
                ),
            )

        parts = [frames[start:start + 6] for start in range(0, config.steps, 6)]
        for batched, whole in zip(answers(parts), answers([frames])):
            assert np.array_equal(batched, whole)


class TestBatchedCheckpoints:
    class RecordingCheckpoint:
        def __init__(self):
            self.saved = {}

        def load(self, index):
            return None

        def save(self, index, result):
            self.saved[index] = result

    def test_batched_run_saves_one_batch_iteration_results(self, monkeypatch):
        config = make_config("waypoint", iterations=3)
        whole = collect_frame_statistics(config)
        cap_batches(monkeypatch, 9)
        recorder = self.RecordingCheckpoint()
        collect_frame_statistics(config, checkpoint=recorder)
        assert sorted(recorder.saved) == [0, 1, 2]
        for index, result in recorder.saved.items():
            assert result == whole[index]

    def test_batched_resume_skips_loaded_iterations(self, monkeypatch):
        config = make_config("drunkard", iterations=3)
        whole = collect_frame_statistics(config)

        class Preloaded(self.RecordingCheckpoint):
            def load(self, index):
                return whole[index] if index == 1 else None

        cap_batches(monkeypatch, 9)
        checkpoint = Preloaded()
        resumed = collect_frame_statistics(config, checkpoint=checkpoint)
        assert sorted(checkpoint.saved) == [0, 2]
        assert all(a == b for a, b in zip(whole, resumed))
