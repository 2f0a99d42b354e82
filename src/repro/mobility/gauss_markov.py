"""The Gauss–Markov mobility model (extension).

A temporally correlated model: each node has a velocity vector that evolves
as an AR(1) process around a mean velocity, so consecutive movements are
correlated (tunable with ``alpha``) rather than independent as in the
drunkard model or piecewise deterministic as in random waypoint.  Included
to broaden the mobility-model ablation beyond the paper's two models.

Draw protocol
-------------
Each step consumes exactly one ``(n, d)`` Gaussian innovation block.
Because a NumPy generator fills ``rng.normal(size=(steps, n, d))`` with
exactly the same values as ``steps`` sequential ``rng.normal(size=(n, d))``
calls, the vectorized :meth:`GaussMarkovModel.trajectory` override draws a
whole run's innovations in one call and is bit-identical — frames, final
state and random stream — to per-step
:meth:`~repro.mobility.base.MobilityModel.step` execution.  The AR(1)
recurrence itself stays a per-step loop (each velocity depends on the
previous one, and the boundary reflection flips velocity components
data-dependently), but that loop is a handful of cheap array operations
per step with no random-draw bookkeeping left in it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.stats.rng import make_rng
from repro.types import Positions


class GaussMarkovModel(MobilityModel):
    """Gauss–Markov correlated random mobility.

    Args:
        mean_speed: magnitude of the long-run mean velocity.
        alpha: memory parameter in ``[0, 1]``; 0 is memoryless (pure noise),
            1 is straight-line motion at the initial velocity.
        noise_std: standard deviation of the velocity innovation.
        pstationary: probability that a node never moves.
    """

    def __init__(
        self,
        mean_speed: float = 1.0,
        alpha: float = 0.75,
        noise_std: float = 0.5,
        pstationary: float = 0.0,
    ) -> None:
        super().__init__(pstationary=pstationary)
        if mean_speed < 0:
            raise ConfigurationError(
                f"mean_speed must be non-negative, got {mean_speed}"
            )
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        if noise_std < 0:
            raise ConfigurationError(f"noise_std must be non-negative, got {noise_std}")
        self.mean_speed = float(mean_speed)
        self.alpha = float(alpha)
        self.noise_std = float(noise_std)
        self._velocities: Optional[np.ndarray] = None
        self._mean_velocities: Optional[np.ndarray] = None

    def _prepare(self, rng: np.random.Generator) -> None:
        state = self.state
        n = state.node_count
        dimension = state.region.dimension
        directions = rng.normal(size=(n, dimension))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        directions /= norms
        self._mean_velocities = directions * self.mean_speed
        self._velocities = self._mean_velocities.copy()

    def _advance(self, rng: np.random.Generator) -> Positions:
        state = self.state
        assert self._velocities is not None
        assert self._mean_velocities is not None

        positions = state.positions.copy()
        n = state.node_count
        if n == 0:
            return positions

        noise = rng.normal(scale=self.noise_std, size=self._velocities.shape)
        self._velocities = (
            self.alpha * self._velocities
            + (1.0 - self.alpha) * self._mean_velocities
            + np.sqrt(max(1.0 - self.alpha**2, 0.0)) * noise
        )
        stepped = positions + self._velocities
        reflected = state.region.reflect(stepped)
        # Where a reflection happened, flip the corresponding velocity
        # component so the node continues away from the wall.
        bounced = ~np.isclose(stepped, reflected)
        self._velocities[bounced] = -self._velocities[bounced]
        return reflected

    # ------------------------------------------------------------------ #
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: one Gaussian draw for the whole block of steps.

        Bit-identical to ``steps - 1`` sequential :meth:`step` calls —
        the AR(1) velocity update, boundary reflection with velocity
        flipping, stationary-node pinning and the base class's containment
        clamp are evaluated with exactly the per-step expressions, while
        all random draws happen in a single ``rng.normal`` call.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be at least 1, got {steps}")
        state = self.state
        generator = make_rng(rng)
        n, dimension = state.positions.shape
        frames = np.empty((steps, n, dimension), dtype=float)
        frames[0] = state.positions
        if steps == 1 or n == 0:
            # An empty network still "takes" the steps (no draws either way).
            state.step_index += steps - 1
            return frames

        assert self._velocities is not None
        assert self._mean_velocities is not None
        region = state.region
        mask = state.stationary_mask
        noise = generator.normal(
            scale=self.noise_std, size=(steps - 1,) + self._velocities.shape
        )
        for index in range(steps - 1):
            # The exact _advance arithmetic, with noise[index] in place of
            # the per-step draw.
            self._velocities = (
                self.alpha * self._velocities
                + (1.0 - self.alpha) * self._mean_velocities
                + np.sqrt(max(1.0 - self.alpha**2, 0.0)) * noise[index]
            )
            stepped = state.positions + self._velocities
            reflected = region.reflect(stepped)
            bounced = ~np.isclose(stepped, reflected)
            self._velocities[bounced] = -self._velocities[bounced]
            # The exact _step_in_place boundary/pinning bookkeeping.
            new_positions = reflected
            if mask.any():
                new_positions[mask] = state.positions[mask]
            if not region.contains(new_positions):
                new_positions = region.clamp(new_positions)
            state.positions = new_positions
            frames[index + 1] = new_positions
        state.step_index += steps - 1
        return frames

    def describe(self) -> str:
        return (
            f"GaussMarkovModel(mean_speed={self.mean_speed}, alpha={self.alpha}, "
            f"noise_std={self.noise_std}, pstationary={self.pstationary})"
        )
