"""Tests for repro.analysis.bounds_1d (Theorems 3-5)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import bounds_1d
from repro.analysis.bounds_1d import (
    connectivity_probability_1d_exact,
    critical_product_1d,
    nodes_for_connectivity_1d,
    range_for_connectivity_probability_1d,
)
from repro.connectivity.metrics import is_placement_connected
from repro.exceptions import AnalysisError


class TestCriticalProduct:
    def test_value(self):
        assert critical_product_1d(np.e) == pytest.approx(np.e)
        assert critical_product_1d(100.0) == pytest.approx(100.0 * np.log(100.0))

    def test_small_side_clamped_to_zero(self):
        assert critical_product_1d(1.0) == 0.0
        assert critical_product_1d(0.5) == 0.0

    def test_invalid(self):
        with pytest.raises(AnalysisError):
            critical_product_1d(0.0)


class TestPredictors:
    def test_range_and_nodes_are_duals(self):
        side = 10000.0
        n = 500
        r = critical_product_1d(side) / n
        assert nodes_for_connectivity_1d(r, side) == pytest.approx(n, abs=1)

    def test_invalid_arguments(self):
        with pytest.raises(AnalysisError):
            nodes_for_connectivity_1d(0.0, 100.0)
        with pytest.raises(AnalysisError):
            nodes_for_connectivity_1d(10.0, 100.0, constant=0.0)


class TestExactProbability:
    def test_trivial_cases(self):
        assert connectivity_probability_1d_exact(1, 100.0, 0.0) == 1.0
        assert connectivity_probability_1d_exact(5, 100.0, 0.0) == 0.0
        assert connectivity_probability_1d_exact(5, 100.0, 100.0) == 1.0
        assert connectivity_probability_1d_exact(5, 100.0, 200.0) == 1.0

    def test_monotone_in_range(self):
        # Allow a tiny tolerance: the alternating inclusion-exclusion sum
        # leaves ~1e-10 cancellation noise at very small probabilities.
        probabilities = [
            connectivity_probability_1d_exact(20, 100.0, r) for r in np.linspace(1, 60, 30)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(probabilities, probabilities[1:]))

    def test_monotone_in_nodes_when_dense(self):
        # In the dense regime (r comfortably above l/n) adding nodes helps;
        # note this is NOT true in the sparse regime, where extra nodes add
        # extra gaps that must also be covered.
        values = [connectivity_probability_1d_exact(n, 100.0, 30.0) for n in (5, 10, 20, 40)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_two_nodes_closed_form(self):
        # For n=2, P(connected) = P(|X1 - X2| <= r) = 2r/l - (r/l)^2.
        side, r = 10.0, 3.0
        expected = 2 * r / side - (r / side) ** 2
        assert connectivity_probability_1d_exact(2, side, r) == pytest.approx(expected)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        side, n, r = 100.0, 15, 15.0
        trials = 3000
        connected = 0
        for _ in range(trials):
            points = np.sort(rng.uniform(0, side, size=n))
            if np.max(np.diff(points)) <= r:
                connected += 1
        empirical = connected / trials
        assert connectivity_probability_1d_exact(n, side, r) == pytest.approx(
            empirical, abs=0.03
        )

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 32, 48, 64])
    @pytest.mark.parametrize("side", [10.0, 256.0, 1000.0])
    def test_matches_exact_rational_sum(self, n, side):
        """Every range from 0.25 up, including the small ranges whose
        alternating terms dwarf the result."""
        ranges = [0.25 * 1.25**i for i in range(60) if 0.25 * 1.25**i < side]
        errors = [
            abs(connectivity_probability_1d_exact(n, side, r) - _exact(n, side, r))
            for r in ranges
        ]
        # The float path keeps lgamma's rounding (up to about 3e-12 here).
        assert max(errors) <= 1e-11

    def test_small_ranges_at_a_few_hundred_nodes(self):
        # The alternating terms reach 1e40 and more: a float sum read 1.0
        # at r = 0.25 and 0.0 at r = 2, against about 0 for both.
        assert connectivity_probability_1d_exact(256, 1024.0, 0.25) < 1e-12
        assert connectivity_probability_1d_exact(64, 256.0, 2.0) < 1e-12
        assert connectivity_probability_1d_exact(64, 256.0, 8.0) == pytest.approx(
            7.0480095e-8, abs=1e-11
        )

    def test_monotone_in_range_at_small_ranges(self):
        grid = [0.25 * 1.5**i for i in range(18)]
        values = [connectivity_probability_1d_exact(256, 1024.0, r) for r in grid]
        assert all(b >= a - 1e-11 for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    @pytest.mark.parametrize(
        "n, side, r", [(10, 100.0, 30.0), (25, 500.0, 60.0), (200, 1000.0, 40.0)]
    )
    def test_decimal_sum_agrees_where_the_float_sum_is_kept(
        self, monkeypatch, n, side, r
    ):
        def refuse(*args):
            raise AssertionError("a well-conditioned sum left the float path")

        with monkeypatch.context() as patch:
            patch.setattr(bounds_1d, "_decimal_sum", refuse)
            float_value = connectivity_probability_1d_exact(n, side, r)
        # No float sum meets this bound, so the same sum runs in decimal.
        monkeypatch.setattr(bounds_1d, "FLOAT_SUM_ERROR", 1e-300)
        decimal_value = connectivity_probability_1d_exact(n, side, r)
        assert 0.01 < float_value < 0.99
        assert decimal_value == pytest.approx(float_value, abs=1e-12)

    def test_large_node_count_stays_a_probability(self):
        for r in (0.5, 2.0, 8.0, 32.0):
            value = connectivity_probability_1d_exact(2048, 8192.0, r)
            assert 0.0 <= value <= 1.0
        assert connectivity_probability_1d_exact(2048, 8192.0, 2.0) < 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(AnalysisError):
            connectivity_probability_1d_exact(0, 10.0, 1.0)
        with pytest.raises(AnalysisError):
            connectivity_probability_1d_exact(5, -1.0, 1.0)
        with pytest.raises(AnalysisError):
            connectivity_probability_1d_exact(5, 10.0, -1.0)


class TestRangeForProbability:
    def test_achieves_requested_probability(self):
        side, n = 1000.0, 50
        r = range_for_connectivity_probability_1d(n, side, 0.9)
        assert connectivity_probability_1d_exact(n, side, r) >= 0.9
        assert connectivity_probability_1d_exact(n, side, r * 0.95) < 0.9

    def test_higher_probability_needs_larger_range(self):
        side, n = 1000.0, 50
        assert range_for_connectivity_probability_1d(
            n, side, 0.99
        ) > range_for_connectivity_probability_1d(n, side, 0.5)

    def test_invalid_probability(self):
        with pytest.raises(AnalysisError):
            range_for_connectivity_probability_1d(10, 100.0, 1.0)


class TestTheorem5Empirically:
    """The headline result: r n ~ l log l separates connectivity regimes."""

    def test_upper_bound_connects_with_high_probability(self):
        rng = np.random.default_rng(42)
        side = 2000.0
        n = 200
        r = 2.0 * critical_product_1d(side) / n
        connected = sum(
            is_placement_connected(rng.uniform(0, side, size=(n, 1)), r)
            for _ in range(40)
        )
        assert connected >= 36  # At least 90% of placements connected.

    def test_lower_bound_disconnects_frequently(self):
        rng = np.random.default_rng(43)
        side = 2000.0
        n = 200
        r = 0.15 * critical_product_1d(side) / n
        connected = sum(
            is_placement_connected(rng.uniform(0, side, size=(n, 1)), r)
            for _ in range(40)
        )
        assert connected <= 20  # Far from always connected.


def _exact(n, side, r):
    """The inclusion-exclusion sum in exact rational arithmetic."""
    ratio = Fraction(r) / Fraction(side)
    total = Fraction(0)
    for k in range(n):
        base = 1 - k * ratio
        if base <= 0:
            break
        total += (-1) ** k * math.comb(n - 1, k) * base**n
    return float(total)
