"""The degenerate "no mobility" model.

Setting ``#steps = 1`` in the paper's simulator corresponds to the
stationary case; in this library the same effect is obtained either by
running a single step or by using :class:`StationaryModel`, which never
moves any node.  Having it as an explicit model keeps the simulator code
free of special cases.  The stationary critical range binds every
placement to this model, then reduces the placements with the same
batched frame kernel as the mobile thresholds (see
:func:`repro.simulation.runner.stationary_critical_range`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.types import Positions


class StationaryModel(MobilityModel):
    """A mobility model in which no node ever moves."""

    def __init__(self) -> None:
        super().__init__(pstationary=1.0)

    def _prepare(self, rng: np.random.Generator) -> None:
        # Nothing to allocate — positions never change.
        return None

    def _advance(self, rng: np.random.Generator) -> Positions:
        return self.state.positions.copy()

    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: every frame repeats the current positions.

        Neither :meth:`_advance` nor the base-class stepping consumes any
        random draws for a stationary model, so this broadcast is
        bit-identical to ``steps - 1`` individual :meth:`step` calls.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be at least 1, got {steps}")
        state = self.state
        frames = np.repeat(state.positions[None, :, :], steps, axis=0)
        state.step_index += steps - 1
        return frames

    def describe(self) -> str:
        return "StationaryModel()"
