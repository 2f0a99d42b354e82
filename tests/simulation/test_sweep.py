"""Tests for repro.simulation.sweep."""

import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.sweep import SweepResult, sweep_parameter


class TestSweepParameter:
    def test_rows_and_series(self):
        sweep = sweep_parameter("x", [1.0, 2.0, 3.0], lambda x: {"square": x * x})
        assert sweep.parameter_values == [1.0, 2.0, 3.0]
        assert sweep.series("square") == [1.0, 4.0, 9.0]
        assert sweep.series_names() == ["square"]

    def test_multiple_series(self):
        sweep = sweep_parameter(
            "x", [2.0], lambda x: {"double": 2 * x, "half": x / 2}
        )
        assert set(sweep.series_names()) == {"double", "half"}
        assert sweep.rows[0]["x"] == 2.0

    def test_measure_called_in_order(self):
        calls = []

        def measure(value):
            calls.append(value)
            return {"v": value}

        sweep_parameter("p", [3, 1, 2], measure)
        assert calls == [3, 1, 2]

    def test_empty_sweep(self):
        sweep = sweep_parameter("x", [], lambda x: {"y": x})
        assert sweep.rows == []
        assert sweep.series_names() == []
        assert sweep.parameter_values == []

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ConfigurationError):
            sweep_parameter("x", [1.0], lambda x: {"y": x}, workers=0)


class TestSweepResult:
    def test_as_dicts(self):
        sweep = SweepResult(parameter_name="l", rows=[{"l": 1.0, "y": 2.0}])
        assert sweep.as_dicts()[0]["y"] == 2.0

    def test_series_names_unions_all_rows(self):
        """Regression: series appearing only at later parameter values must
        not be dropped (series_names used to read rows[0] only)."""
        sweep = SweepResult(
            parameter_name="l",
            rows=[
                {"l": 1.0, "always": 1.0},
                {"l": 2.0, "always": 2.0, "late": 0.5},
                {"l": 3.0, "always": 3.0, "later": 0.1},
            ],
        )
        assert sweep.series_names() == ["always", "late", "later"]


# --------------------------------------------------------------------------- #
# Parallel sweep execution: measures must live at module level so they pickle.
# --------------------------------------------------------------------------- #
def _square_measure(value):
    return {"square": value * value, "negated": -value}


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        values = [0.5, 1.5, 2.5, 3.5, 4.5]
        serial = sweep_parameter("x", values, _square_measure)
        parallel = sweep_parameter("x", values, _square_measure, workers=3)
        assert serial.rows == parallel.rows
        assert serial.series_names() == parallel.series_names()

    def test_more_workers_than_values(self):
        values = [1.0, 2.0]
        parallel = sweep_parameter("x", values, _square_measure, workers=16)
        assert parallel.rows == sweep_parameter("x", values, _square_measure).rows


class DictCheckpoint:
    """In-memory SweepCheckpoint: rows keyed by parameter value."""

    def __init__(self, rows=None):
        self.rows = dict(rows or {})
        self.loads = 0
        self.saves = 0

    def load(self, value):
        self.loads += 1
        row = self.rows.get(value)
        return dict(row) if row is not None else None

    def save(self, value, row):
        self.saves += 1
        self.rows[value] = dict(row)


class TestCheckpointedSweep:
    def test_fresh_checkpoint_measures_and_saves_everything(self):
        checkpoint = DictCheckpoint()
        sweep = sweep_parameter("x", [1.0, 2.0], _square_measure, checkpoint=checkpoint)
        assert checkpoint.saves == 2
        assert checkpoint.rows[1.0]["square"] == 1.0
        assert sweep.rows == sweep_parameter("x", [1.0, 2.0], _square_measure).rows

    def test_checkpointed_values_are_not_remeasured(self):
        calls = []

        def measure(value):
            calls.append(value)
            return {"square": value * value}

        checkpoint = DictCheckpoint(
            {2.0: {"x": 2.0, "square": 4.0}}
        )
        sweep = sweep_parameter("x", [1.0, 2.0, 3.0], measure, checkpoint=checkpoint)
        assert calls == [1.0, 3.0]
        # Rows come back in sweep order regardless of their provenance.
        assert sweep.parameter_values == [1.0, 2.0, 3.0]
        assert sweep.series("square") == [1.0, 4.0, 9.0]

    def test_fully_checkpointed_sweep_measures_nothing(self):
        reference = sweep_parameter("x", [1.0, 2.0], _square_measure)
        checkpoint = DictCheckpoint(
            {row["x"]: row for row in reference.rows}
        )

        def explode(value):
            raise AssertionError("measure must not be called")

        sweep = sweep_parameter("x", [1.0, 2.0], explode, checkpoint=checkpoint)
        assert sweep.rows == reference.rows
        assert checkpoint.saves == 0

    def test_interrupted_sweep_resumes_where_it_stopped(self):
        """A measure that dies mid-sweep leaves its finished rows behind;
        re-running with the same checkpoint completes the remainder and the
        result equals an uninterrupted run."""
        checkpoint = DictCheckpoint()

        def failing(value):
            if value >= 3.0:
                raise RuntimeError("killed")
            return _square_measure(value)

        with pytest.raises(RuntimeError):
            sweep_parameter("x", [1.0, 2.0, 3.0, 4.0], failing, checkpoint=checkpoint)
        assert sorted(checkpoint.rows) == [1.0, 2.0]

        calls = []

        def resumed_measure(value):
            calls.append(value)
            return _square_measure(value)

        resumed = sweep_parameter(
            "x", [1.0, 2.0, 3.0, 4.0], resumed_measure, checkpoint=checkpoint
        )
        assert calls == [3.0, 4.0]
        assert resumed.rows == sweep_parameter(
            "x", [1.0, 2.0, 3.0, 4.0], _square_measure
        ).rows

    def test_parallel_sweep_checkpoints_and_matches_serial(self):
        values = [0.5, 1.5, 2.5, 3.5, 4.5]
        checkpoint = DictCheckpoint({1.5: {"x": 1.5, "square": 2.25, "negated": -1.5}})
        parallel = sweep_parameter(
            "x", values, _square_measure, workers=3, checkpoint=checkpoint
        )
        assert parallel.rows == sweep_parameter("x", values, _square_measure).rows
        # Every missing value was persisted; the preloaded one was not re-saved.
        assert checkpoint.saves == len(values) - 1
        assert sorted(checkpoint.rows) == values
