"""The random direction mobility model (extension).

Not part of the paper's evaluation, but a standard third point of
comparison for the "does the precise mobility model matter?" question that
the paper raises: each node picks a direction uniformly at random and a
travel duration, walks in that direction at a constant speed, and reflects
off the region boundary; when the duration expires it pauses briefly and
picks a new direction.  Unlike random waypoint, this model does not
concentrate nodes in the centre of the region.

Leg arithmetic
--------------
A node's walk is a sequence of *legs* of a whole number of steps.  Each
leg stores its origin, unit direction and total step count, and every
in-leg position is the closed form ``reflect(origin + speed * k *
direction)`` (billiard folding of the straight-line point into the
region).  Random draws happen only at leg renewals — one
``rng.normal``-based direction batch plus one ``rng.integers`` duration
batch for all the nodes finishing that step — so per-step and
whole-trajectory execution evaluate identical expressions and consume
identical random streams.  That makes the vectorized
:meth:`RandomDirectionModel.trajectory` override (which fills whole
pause/cruise segments per node and batches the renewal draws at each
finish event) bit-identical to ``steps - 1`` sequential
:meth:`~repro.mobility.base.MobilityModel.step` calls, including the
model state and the random stream left behind.

(The closed form is also a deliberate dynamics fix, not just a speedup:
the previous implementation reflected each incremental step without
moving the leg origin, so a node whose leg hit a wall oscillated in
place against it for the rest of the leg instead of traversing the
region like the billiard boundary this docstring always promised.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.stats.rng import make_rng
from repro.types import Positions


class RandomDirectionModel(MobilityModel):
    """Constant-speed travel in a random direction with boundary reflection.

    Args:
        speed: distance travelled per step while moving.
        travel_steps: mean number of steps of a travel leg (the actual leg
            length is drawn uniformly from ``[1, 2 * travel_steps]``).
        tpause: steps to pause between legs.
        pstationary: probability that a node never moves.
    """

    def __init__(
        self,
        speed: float = 1.0,
        travel_steps: int = 100,
        tpause: int = 0,
        pstationary: float = 0.0,
    ) -> None:
        super().__init__(pstationary=pstationary)
        if speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        if travel_steps <= 0:
            raise ConfigurationError(
                f"travel_steps must be positive, got {travel_steps}"
            )
        if tpause < 0:
            raise ConfigurationError(f"tpause must be non-negative, got {tpause}")
        self.speed = float(speed)
        self.travel_steps = int(travel_steps)
        self.tpause = int(tpause)
        self._directions: Optional[np.ndarray] = None
        self._leg_origins: Optional[np.ndarray] = None
        self._leg_steps: Optional[np.ndarray] = None
        self._leg_totals: Optional[np.ndarray] = None
        self._pause_remaining: Optional[np.ndarray] = None

    def _prepare(self, rng: np.random.Generator) -> None:
        state = self.state
        n = state.node_count
        self._directions = self._random_directions(n, state.region.dimension, rng)
        self._leg_totals = rng.integers(1, 2 * self.travel_steps + 1, size=n)
        self._leg_origins = state.positions.copy()
        self._leg_steps = np.zeros(n, dtype=np.int64)
        self._pause_remaining = np.zeros(n, dtype=np.int64)

    def _cruise_positions(self, nodes: np.ndarray, steps_in_leg: np.ndarray) -> np.ndarray:
        """Closed-form in-leg positions: ``reflect(origin + speed*k*dir)``."""
        state = self.state
        raw = (
            self._leg_origins[nodes]
            + self._directions[nodes] * (self.speed * steps_in_leg)[..., None]
        )
        return state.region.reflect(raw)

    def _renew_legs(self, nodes: np.ndarray, origins: np.ndarray,
                    rng: np.random.Generator) -> None:
        """Draw fresh directions/durations for ``nodes`` (ascending order)."""
        self._pause_remaining[nodes] = self.tpause
        self._directions[nodes] = self._random_directions(
            nodes.size, self.state.region.dimension, rng
        )
        self._leg_totals[nodes] = rng.integers(
            1, 2 * self.travel_steps + 1, size=nodes.size
        )
        self._leg_origins[nodes] = origins
        self._leg_steps[nodes] = 0

    def _advance(self, rng: np.random.Generator) -> Positions:
        state = self.state
        assert self._directions is not None
        assert self._leg_steps is not None
        assert self._leg_totals is not None
        assert self._pause_remaining is not None

        positions = state.positions.copy()
        n = state.node_count
        if n == 0:
            return positions

        pausing = self._pause_remaining > 0
        self._pause_remaining[pausing] -= 1
        moving = ~pausing

        if moving.any():
            indices = np.nonzero(moving)[0]
            self._leg_steps[indices] += 1
            positions[indices] = self._cruise_positions(
                indices, self._leg_steps[indices]
            )
            finished = indices[
                self._leg_steps[indices] >= self._leg_totals[indices]
            ]
            if finished.size:
                self._renew_legs(finished, positions[finished], rng)
        return positions

    # ------------------------------------------------------------------ #
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: whole legs at a time, draws batched per renewal.

        Bit-identical to ``steps - 1`` sequential :meth:`step` calls
        (frames, final model state and random stream): positions use the
        same closed-form leg arithmetic, and direction/duration draws
        happen at exactly the leg-finish steps the sequential execution
        would hit, for the same node sets in the same order.  The Python
        loop runs per *renewal event* — every pause/cruise segment in
        between is filled with one reflected slice assignment.
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

        last = steps - 1
        pause = self._pause_remaining
        leg_steps = self._leg_steps
        # Absolute frame at which each node finishes its current leg:
        # the remaining pause, then one frame per remaining leg step.
        next_finish = pause + (self._leg_totals - leg_steps)
        filled = np.zeros(n, dtype=np.int64)

        def fill_node(node: int, until: int) -> None:
            """Fill frames ``filled[node]+1 .. until`` (pause, then cruise)."""
            start = filled[node] + 1
            if start > until:
                return
            span = until - start + 1
            resting = min(int(pause[node]), span)
            if resting:
                frames[start:start + resting, node] = frames[filled[node], node]
                pause[node] -= resting
            cruise = span - resting
            if cruise:
                counts = np.arange(
                    leg_steps[node] + 1, leg_steps[node] + cruise + 1
                )
                frames[start + resting:until + 1, node] = self._cruise_positions(
                    np.full(cruise, node), counts
                )
                leg_steps[node] += cruise
            filled[node] = until

        while True:
            event = int(next_finish.min())
            if event > last:
                break
            finishing = np.nonzero(next_finish == event)[0]
            for node in finishing:
                fill_node(int(node), event)
            self._renew_legs(finishing, frames[event, finishing], generator)
            next_finish[finishing] = event + self.tpause + self._leg_totals[finishing]

        for node in range(n):
            fill_node(node, last)

        # Stationary nodes are pinned to wherever they started.
        mask = state.stationary_mask
        if mask.any():
            frames[:, mask] = state.positions[mask]
        state.positions = frames[last].copy()
        state.step_index += last
        return frames

    @staticmethod
    def _random_directions(
        count: int, dimension: int, rng: np.random.Generator
    ) -> np.ndarray:
        vectors = rng.normal(size=(count, dimension))
        # sqrt-of-sum-of-squares is bit-identical to np.linalg.norm here.
        norms = np.sqrt(np.sum(vectors * vectors, axis=1, keepdims=True))
        norms = np.where(norms == 0.0, 1.0, norms)
        return vectors / norms

    def describe(self) -> str:
        return (
            f"RandomDirectionModel(speed={self.speed}, travel_steps={self.travel_steps}, "
            f"tpause={self.tpause}, pstationary={self.pstationary})"
        )
