"""Tests for repro.occupancy.exact."""

import math

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.occupancy.cells import simulate_empty_cells
from repro.occupancy.exact import (
    empty_cells_mean,
    empty_cells_pmf,
    empty_cells_variance,
    log_binomial,
    probability_all_cells_occupied,
)


class TestLogBinomial:
    """The one log-binomial the occupancy and 1-D connectivity sums share."""

    @pytest.mark.parametrize(
        "a, b",
        [(0, 0), (1, 0), (1, 1), (10, 3), (63, 31), (200, 7), (4095, 2047)],
    )
    def test_matches_the_exact_binomial(self, a, b):
        assert log_binomial(a, b) == pytest.approx(
            math.log(math.comb(a, b)), rel=1e-12, abs=1e-12
        )


class TestMean:
    def test_formula(self):
        assert empty_cells_mean(10, 5) == pytest.approx(5 * (0.8) ** 10)

    def test_zero_balls(self):
        assert empty_cells_mean(0, 7) == 7.0

    def test_single_cell(self):
        assert empty_cells_mean(3, 1) == 0.0
        assert empty_cells_mean(0, 1) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            empty_cells_mean(-1, 5)
        with pytest.raises(AnalysisError):
            empty_cells_mean(5, 0)

    def test_decreasing_in_n(self):
        values = [empty_cells_mean(n, 20) for n in range(0, 100, 10)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        samples = simulate_empty_cells(30, 20, 4000, rng)
        assert np.mean(samples) == pytest.approx(empty_cells_mean(30, 20), rel=0.05)


class TestVariance:
    def test_non_negative(self):
        for n in (0, 1, 5, 50, 500):
            assert empty_cells_variance(n, 25) >= 0.0

    def test_zero_balls_zero_variance(self):
        assert empty_cells_variance(0, 10) == pytest.approx(0.0, abs=1e-9)

    def test_single_cell(self):
        assert empty_cells_variance(5, 1) == 0.0

    def test_matches_simulation(self):
        rng = np.random.default_rng(1)
        samples = simulate_empty_cells(40, 20, 6000, rng)
        assert np.var(samples, ddof=1) == pytest.approx(
            empty_cells_variance(40, 20), rel=0.15
        )


class TestAllOccupied:
    def test_fewer_balls_than_cells(self):
        assert probability_all_cells_occupied(3, 5) == 0.0

    def test_equal_balls_and_cells(self):
        # n = C: probability all occupied is C! / C^C.
        assert probability_all_cells_occupied(3, 3) == pytest.approx(6 / 27)

    def test_many_balls_close_to_one(self):
        assert probability_all_cells_occupied(200, 5) > 0.99

    def test_one_cell(self):
        assert probability_all_cells_occupied(1, 1) == 1.0


def _pmf(n, cells):
    """``[P(mu = 0), ..., P(mu = C)]``."""
    return [empty_cells_pmf(n, cells, k) for k in range(cells + 1)]


class TestPmf:
    def test_sums_to_one(self):
        for n, cells in [(5, 4), (10, 6), (20, 8)]:
            distribution = _pmf(n, cells)
            assert sum(distribution) == pytest.approx(1.0, abs=1e-9)

    def test_zero_balls_all_empty(self):
        assert empty_cells_pmf(0, 5, 5) == 1.0
        assert empty_cells_pmf(0, 5, 3) == 0.0

    def test_out_of_range_k(self):
        assert empty_cells_pmf(5, 4, -1) == 0.0
        assert empty_cells_pmf(5, 4, 5) == 0.0

    def test_mean_consistency(self):
        n, cells = 12, 6
        distribution = _pmf(n, cells)
        mean_from_pmf = sum(k * p for k, p in enumerate(distribution))
        assert mean_from_pmf == pytest.approx(empty_cells_mean(n, cells), abs=1e-9)

    def test_variance_consistency(self):
        n, cells = 12, 6
        distribution = _pmf(n, cells)
        mean = sum(k * p for k, p in enumerate(distribution))
        second_moment = sum(k * k * p for k, p in enumerate(distribution))
        assert second_moment - mean**2 == pytest.approx(
            empty_cells_variance(n, cells), abs=1e-9
        )

    def test_matches_simulation_histogram(self):
        rng = np.random.default_rng(2)
        n, cells = 8, 5
        samples = simulate_empty_cells(n, cells, 20000, rng)
        histogram = np.bincount(samples, minlength=cells + 1) / len(samples)
        expected = _pmf(n, cells)
        assert np.allclose(histogram, expected, atol=0.02)
