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
