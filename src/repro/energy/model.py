"""Radio energy model.

The standard path-loss model: the power needed to reach a receiver at
distance ``r`` is proportional to ``r ** alpha`` where the path-loss
exponent ``alpha`` is 2 in free space and up to 4 or more in cluttered
environments ("proportional to the square (or, depending on environmental
conditions, to a higher power) of the transmitting range" — Section 1).
Only ratios of powers enter the savings the paper quotes, so the
proportionality constant is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: Path-loss exponent in free space.
FREE_SPACE_EXPONENT = 2.0

#: Path-loss exponent of the two-ray ground-reflection model.
TWO_RAY_GROUND_EXPONENT = 4.0


def transmission_power(
    transmitting_range: float,
    path_loss_exponent: float = FREE_SPACE_EXPONENT,
) -> float:
    """Power needed to cover ``transmitting_range``: ``r**alpha``."""
    if transmitting_range < 0:
        raise ConfigurationError(
            f"transmitting_range must be non-negative, got {transmitting_range}"
        )
    if path_loss_exponent < 1:
        raise ConfigurationError(
            f"path_loss_exponent must be at least 1, got {path_loss_exponent}"
        )
    return transmitting_range**path_loss_exponent


@dataclass(frozen=True)
class EnergyModel:
    """Per-node radio energy model.

    Attributes:
        path_loss_exponent: exponent ``alpha`` of the distance term.
    """

    path_loss_exponent: float = FREE_SPACE_EXPONENT

    def __post_init__(self) -> None:
        if self.path_loss_exponent < 1:
            raise ConfigurationError(
                f"path_loss_exponent must be at least 1, got {self.path_loss_exponent}"
            )

    def node_power(self, transmitting_range: float) -> float:
        """Power drawn by one node transmitting at ``transmitting_range``."""
        return transmission_power(
            transmitting_range, path_loss_exponent=self.path_loss_exponent
        )
