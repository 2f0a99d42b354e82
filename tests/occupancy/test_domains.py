"""Tests for repro.occupancy.domains."""

import math

import pytest

from repro.exceptions import AnalysisError
from repro.occupancy.domains import OccupancyDomain, classify_domain


class TestClassifyDomain:
    def test_central_domain(self):
        assert classify_domain(1000, 1000) == OccupancyDomain.CENTRAL
        assert classify_domain(2000, 1000) == OccupancyDomain.CENTRAL

    def test_right_hand_domain(self):
        cells = 1000
        n = int(cells * math.log(cells))
        assert classify_domain(n, cells) == OccupancyDomain.RIGHT_HAND

    def test_left_hand_domain(self):
        cells = 10000
        n = int(math.sqrt(cells))
        assert classify_domain(n, cells) == OccupancyDomain.LEFT_HAND

    def test_right_intermediate(self):
        cells = 100000
        # Between C and C log C but Theta of neither with default tolerance:
        n = int(cells * math.log(cells) ** 0.5)
        domain = classify_domain(n, cells)
        assert domain in (
            OccupancyDomain.RIGHT_INTERMEDIATE,
            OccupancyDomain.RIGHT_HAND,
            OccupancyDomain.CENTRAL,
        )
        # With a tight tolerance it must be classified as intermediate.
        assert classify_domain(n, cells, tolerance=1.5) == OccupancyDomain.RIGHT_INTERMEDIATE

    def test_left_intermediate(self):
        cells = 100000
        n = int(cells**0.75)
        assert classify_domain(n, cells, tolerance=1.5) == OccupancyDomain.LEFT_INTERMEDIATE

    def test_below_sqrt_maps_to_lhd(self):
        assert classify_domain(2, 10000, tolerance=1.5) == OccupancyDomain.LEFT_HAND

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            classify_domain(-1, 10)
        with pytest.raises(AnalysisError):
            classify_domain(10, 1)
        with pytest.raises(AnalysisError):
            classify_domain(10, 10, tolerance=0.5)


class TestLineNetworkDomain:
    def test_paper_regime_is_rhid(self):
        # l << r n << l log l is the RHID (proof of Theorem 4).
        side = 1e6
        n = 10000
        # Choose r so that r n = l * sqrt(log l) (strictly between l and l log l).
        r = side * math.sqrt(math.log(side)) / n
        # The line cut into cells of length r: C = l / r.
        domain = classify_domain(n, side / r, tolerance=1.5)
        assert domain == OccupancyDomain.RIGHT_INTERMEDIATE
