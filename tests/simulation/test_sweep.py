"""Tests for repro.simulation.sweep."""

from repro.simulation.sweep import SweepResult


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
# Value tasks in the campaign scheduler's pool: measures live at module
# level so they pickle.
# --------------------------------------------------------------------------- #
def _square_measure(value):
    return {"square": value * value, "negated": -value}


class TestParallelSweep:
    def test_parallel_equals_serial(self, serial_sweep, campaign_sweep):
        values = [0.5, 1.5, 2.5, 3.5, 4.5]
        serial = serial_sweep("x", values, _square_measure)
        parallel = campaign_sweep("x", values, _square_measure, workers=3)
        assert serial.rows == parallel.rows
        assert serial.series_names() == parallel.series_names()

    def test_more_workers_than_values(self, serial_sweep, campaign_sweep):
        values = [1.0, 2.0]
        parallel = campaign_sweep("x", values, _square_measure, workers=16)
        assert parallel.rows == serial_sweep("x", values, _square_measure).rows
