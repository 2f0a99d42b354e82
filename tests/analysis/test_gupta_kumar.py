"""Tests for repro.analysis.gupta_kumar."""

import math

import numpy as np
import pytest

from repro.analysis.gupta_kumar import gupta_kumar_critical_range
from repro.exceptions import AnalysisError


class TestCriticalRange:
    def test_unit_square_formula(self):
        n = 100
        expected = math.sqrt(math.log(n) / (math.pi * n))
        assert gupta_kumar_critical_range(n) == pytest.approx(expected)

    def test_scales_linearly_with_side(self):
        assert gupta_kumar_critical_range(100, side=50.0) == pytest.approx(
            50.0 * gupta_kumar_critical_range(100, side=1.0)
        )

    def test_decreasing_in_n(self):
        values = [gupta_kumar_critical_range(n) for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_constant_increases_range(self):
        assert gupta_kumar_critical_range(100, constant=2.0) > gupta_kumar_critical_range(
            100, constant=0.0
        )

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            gupta_kumar_critical_range(1)
        with pytest.raises(AnalysisError):
            gupta_kumar_critical_range(100, side=0.0)

    def test_roughly_predicts_simulated_critical_range(self):
        """The GK threshold should be within a small constant factor of the
        simulated stationary critical range for a dense 2-D network."""
        from repro.simulation.runner import stationary_critical_range

        n, side = 200, 1000.0
        simulated = stationary_critical_range(
            n, side, dimension=2, iterations=60, seed=1, confidence=0.5
        )
        analytical = gupta_kumar_critical_range(n, side)
        assert 0.5 * analytical < simulated < 3.0 * analytical
