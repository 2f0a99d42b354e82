"""The deployment region ``[0, l]^d``.

The paper restricts node positions to the ``d``-dimensional cube of side
``l``.  :class:`Region` encapsulates that cube: it validates parameters,
samples uniform points, clamps or reflects points that mobility pushes past
the boundary, and answers simple geometric questions (volume,
containment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.types import Positions, as_positions


@dataclass(frozen=True)
class Region:
    """The cube ``[0, side]^dimension`` in which nodes live.

    Attributes:
        side: length ``l`` of the cube's side; must be positive and finite.
        dimension: ``d``; the paper uses 1 (theory) and 2 (simulations) but
            any positive integer is accepted.
    """

    side: float
    dimension: int = 2

    def __post_init__(self) -> None:
        if not (self.side > 0 and math.isfinite(self.side)):
            raise ConfigurationError(
                f"region side must be positive and finite, got {self.side}"
            )
        if self.dimension < 1:
            raise ConfigurationError(
                f"region dimension must be at least 1, got {self.dimension}"
            )

    # ------------------------------------------------------------------ #
    # Basic geometry
    # ------------------------------------------------------------------ #
    @property
    def volume(self) -> float:
        """``side ** dimension`` — length, area or volume of the region."""
        return float(self.side) ** self.dimension

    def contains(self, positions: Positions, tolerance: float = 1e-9) -> bool:
        """``True`` if every position lies inside the region.

        A small ``tolerance`` absorbs floating point noise created by
        repeated mobility updates.
        """
        points = self._check_positions(positions)
        return bool(
            np.all(points >= -tolerance) and np.all(points <= self.side + tolerance)
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_uniform(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> Positions:
        """Draw ``count`` points independently and uniformly from the region."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        generator = rng if rng is not None else np.random.default_rng()
        return generator.uniform(0.0, self.side, size=(count, self.dimension))

    # ------------------------------------------------------------------ #
    # Boundary handling
    # ------------------------------------------------------------------ #
    def clamp(self, positions: Positions) -> Positions:
        """Project positions onto the region (coordinates clipped to [0, l])."""
        points = self._check_positions(positions)
        return np.clip(points, 0.0, self.side)

    def reflect(self, positions: Positions) -> Positions:
        """Reflect positions back into the region (billiard boundary).

        A coordinate that overshoots the boundary by ``delta`` ends up
        ``delta`` inside the region; arbitrarily large overshoots are folded
        by the appropriate number of reflections.
        """
        points = self._check_positions(positions).copy()
        period = 2.0 * self.side
        points = np.mod(points, period)
        overshoot = points > self.side
        points[overshoot] = period - points[overshoot]
        return points

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _check_positions(self, positions: Positions) -> Positions:
        points = as_positions(positions)
        if points.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"positions have dimension {points.shape[1]}, "
                f"but the region has dimension {self.dimension}"
            )
        return points

    # Convenience constructors ----------------------------------------- #
    @classmethod
    def line(cls, side: float) -> "Region":
        """The 1-dimensional region ``[0, side]`` used by Section 3."""
        return cls(side=side, dimension=1)

    @classmethod
    def square(cls, side: float) -> "Region":
        """The 2-dimensional region ``[0, side]^2`` used by Section 4."""
        return cls(side=side, dimension=2)
