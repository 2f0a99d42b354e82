"""Tests for repro.occupancy.asymptotic (Theorem 1)."""

import math

import pytest

from repro.exceptions import AnalysisError
from repro.occupancy.asymptotic import (
    asymptotic_empty_cells_mean,
    asymptotic_empty_cells_variance,
)
from repro.occupancy.exact import empty_cells_mean, empty_cells_variance


class TestUpperBound:
    def test_bounds_exact_mean(self):
        # Theorem 1: E[mu] <= C e^{-alpha} for *every* n, C.
        for n in (0, 1, 10, 100, 1000):
            for cells in (2, 10, 100):
                bound = cells * math.exp(-n / cells)
                assert empty_cells_mean(n, cells) <= bound + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            asymptotic_empty_cells_mean(-1, 10)
        with pytest.raises(AnalysisError):
            asymptotic_empty_cells_mean(5, 0)


class TestAsymptoticMean:
    def test_close_to_exact_for_large_cells(self):
        n, cells = 2000, 1000
        assert asymptotic_empty_cells_mean(n, cells) == pytest.approx(
            empty_cells_mean(n, cells), rel=0.01
        )

    def test_improves_with_size(self):
        # The relative error shrinks as C grows (with alpha fixed).
        errors = []
        for cells in (10, 100, 1000):
            n = 2 * cells
            exact = empty_cells_mean(n, cells)
            approx = asymptotic_empty_cells_mean(n, cells)
            errors.append(abs(exact - approx) / exact)
        assert errors[0] > errors[-1]


class TestAsymptoticVariance:
    def test_close_to_exact_for_large_cells(self):
        n, cells = 2000, 1000
        assert asymptotic_empty_cells_variance(n, cells) == pytest.approx(
            empty_cells_variance(n, cells), rel=0.05
        )

    def test_non_negative(self):
        for n in (0, 1, 10, 1000):
            assert asymptotic_empty_cells_variance(n, 100) >= 0.0
