"""Tests for repro.energy.model."""

import dataclasses
import inspect

import pytest

from repro.energy.model import (
    EnergyModel,
    FREE_SPACE_EXPONENT,
    TWO_RAY_GROUND_EXPONENT,
    transmission_power,
)
from repro.energy.savings import energy_savings_fraction
from repro.exceptions import ConfigurationError


class TestTransmissionPower:
    def test_free_space_square_law(self):
        assert transmission_power(3.0) == pytest.approx(9.0)

    def test_exponent(self):
        assert transmission_power(2.0, path_loss_exponent=4.0) == pytest.approx(16.0)

    def test_zero_range(self):
        assert transmission_power(0.0) == 0.0

    def test_the_exponent_is_the_only_knob(self):
        parameters = list(inspect.signature(transmission_power).parameters)
        assert parameters == ["transmitting_range", "path_loss_exponent"]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            transmission_power(-1.0)
        with pytest.raises(ConfigurationError):
            transmission_power(1.0, path_loss_exponent=0.5)

    def test_exponent_constants(self):
        assert FREE_SPACE_EXPONENT == 2.0
        assert TWO_RAY_GROUND_EXPONENT == 4.0


class TestEnergyModel:
    def test_the_path_loss_exponent_is_the_only_field(self):
        fields = [field.name for field in dataclasses.fields(EnergyModel)]
        assert fields == ["path_loss_exponent"]

    def test_node_power_is_the_path_loss_term(self):
        assert EnergyModel().node_power(0.0) == 0.0
        assert EnergyModel().node_power(3.0) == 3.0**2.0
        assert EnergyModel(path_loss_exponent=4.0).node_power(2.0) == 2.0**4.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(path_loss_exponent=0.0)

    def test_higher_exponent_amplifies_savings(self):
        free_space = EnergyModel(path_loss_exponent=2.0)
        two_ray = EnergyModel(path_loss_exponent=4.0)
        assert energy_savings_fraction(0.5, 1.0, two_ray) > energy_savings_fraction(
            0.5, 1.0, free_space
        )
