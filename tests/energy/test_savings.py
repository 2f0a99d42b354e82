"""Tests for repro.energy.savings."""

import math

import pytest

from repro.energy.savings import (
    energy_savings_fraction,
    equivalent_lifetime_factor,
    savings_table,
)
from repro.exceptions import ConfigurationError


class TestSavingsFraction:
    def test_halving_range_saves_75_percent(self):
        assert energy_savings_fraction(0.5, 1.0) == pytest.approx(0.75)

    def test_no_reduction_no_savings(self):
        assert energy_savings_fraction(1.0, 1.0) == pytest.approx(0.0)

    def test_paper_scenario_r90(self):
        # The paper reports r90 is ~35-40% below r100; at alpha=2 that is a
        # 58-64% transmission-energy saving.
        saving = energy_savings_fraction(0.62, 1.0)
        assert 0.55 < saving < 0.65

    def test_negative_range_rejected(self):
        with pytest.raises(ConfigurationError):
            energy_savings_fraction(-0.1, 1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            energy_savings_fraction(0.5, 0.0)


class TestSavingsTable:
    def test_pure_path_loss(self):
        table = savings_table({"r90": 0.6, "r10": 0.4})
        assert table["r90"] == pytest.approx(1 - 0.36)
        assert table["r10"] == pytest.approx(1 - 0.16)

    def test_reference_ratio_gives_zero(self):
        assert savings_table({"r100": 1.0})["r100"] == pytest.approx(0.0)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            savings_table({"bad": -0.5})


class TestLifetimeFactor:
    def test_halving_range_quadruples_lifetime(self):
        assert equivalent_lifetime_factor(0.5, 1.0) == pytest.approx(4.0)

    def test_zero_reduced_power_is_infinite(self):
        assert math.isinf(equivalent_lifetime_factor(0.0, 1.0))
