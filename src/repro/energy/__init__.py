"""Energy model and the energy/connectivity trade-off.

The paper motivates every range reduction by the energy it saves:
transmitting power grows with the square (or a higher power, depending on
the environment) of the transmitting range.  This package provides the
radio energy model and the savings calculations quoted in Section 4.2
("substantial energy savings can be achieved under both models if temporary
disconnections can be tolerated").
"""

from repro.energy.model import (
    EnergyModel,
    FREE_SPACE_EXPONENT,
    TWO_RAY_GROUND_EXPONENT,
    transmission_power,
)
from repro.energy.savings import energy_savings_fraction, savings_table

__all__ = [
    "EnergyModel",
    "FREE_SPACE_EXPONENT",
    "TWO_RAY_GROUND_EXPONENT",
    "energy_savings_fraction",
    "savings_table",
    "transmission_power",
]
