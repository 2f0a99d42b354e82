"""Energy savings from transmitting-range reductions.

Section 4.2 argues that accepting brief disconnections (using ``r90``
instead of ``r100``) or partial connectivity (``rl50`` instead of
``rstationary``) buys large energy savings because power scales like
``r**alpha``.  These helpers turn range ratios into the savings figures the
paper quotes.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from repro.energy.model import EnergyModel
from repro.exceptions import ConfigurationError


def energy_savings_fraction(
    reduced_range: float,
    reference_range: float,
    model: EnergyModel = EnergyModel(),
) -> float:
    """Fractional energy saving of operating at ``reduced_range``.

    ``1 - power(reduced) / power(reference)``; e.g. with the free-space
    exponent, halving the range saves 75 % of the transmission energy.

    Raises:
        ConfigurationError: if ``reference_range`` draws zero power.
    """
    if reduced_range < 0 or reference_range < 0:
        raise ConfigurationError("ranges must be non-negative")
    reference_power = model.node_power(reference_range)
    if reference_power == 0:
        raise ConfigurationError(
            "reference range draws zero power; savings fraction is undefined"
        )
    return 1.0 - model.node_power(reduced_range) / reference_power


def savings_table(
    range_ratios: Mapping[str, float], model: EnergyModel = EnergyModel()
) -> Dict[str, float]:
    """Energy savings for a table of range ratios ``r_x / rstationary``.

    This is the calculation behind the paper's narrative numbers: a ratio
    of 0.6 (r90 being ~40 % below r100) maps to a ~64 % transmission-energy
    saving at ``alpha = 2``.

    Args:
        range_ratios: mapping from a label (``"r90"``) to the ratio of that
            range to the reference range.

    Returns:
        Mapping from the same labels to fractional savings relative to the
        reference range (ratio 1.0).
    """
    savings: Dict[str, float] = {}
    for label, ratio in range_ratios.items():
        if ratio < 0:
            raise ConfigurationError(f"ratio for {label!r} must be non-negative")
        savings[label] = 1.0 - ratio**model.path_loss_exponent
    return savings


def equivalent_lifetime_factor(
    reduced_range: float,
    reference_range: float,
    model: EnergyModel = EnergyModel(),
) -> float:
    """Battery-lifetime multiplier obtained by the range reduction.

    Assuming lifetime is inversely proportional to transmission power, the
    factor is ``power(reference) / power(reduced)``.  Returns ``inf`` when
    the reduced range draws zero power.
    """
    reduced_power = model.node_power(reduced_range)
    reference_power = model.node_power(reference_range)
    if reduced_power == 0:
        return math.inf
    return reference_power / reduced_power
