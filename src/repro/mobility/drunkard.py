"""The drunkard (random walk) mobility model.

The paper's second model represents non-intentional motion:

* with probability ``pstationary`` a node never moves (base class);
* at each step, a mobile node pauses with probability ``ppause``;
* otherwise its next position is drawn uniformly at random from the disk of
  radius ``m`` centred at its current position; a draw that falls outside
  the deployment region is reflected off the boundary back inside
  (billiard reflection never increases the distance from the centre, so
  every step still moves a node by at most ``m``).

The paper's "moderate but heterogeneous mobility" default is
``pstationary=0.1, ppause=0.3, m=0.01*l``.

Draw protocol
-------------
Each step consumes exactly one uniform block of fixed per-node width: a
pause coin and a radius uniform, plus the direction uniforms (a sign in one
dimension, an angle in two, Box–Muller pairs for a normalised Gaussian
vector in higher dimensions).  Because a
NumPy generator fills ``rng.random((steps, n, k))`` with exactly the same
values as ``steps`` sequential ``rng.random((n, k))`` calls, the vectorized
:meth:`DrunkardModel.trajectory` override draws a whole run's randomness in
a single call and is bit-identical — frames, final state and random stream —
to per-step :meth:`~repro.mobility.base.MobilityModel.step` calls.  (The
seed implementation redrew out-of-region points up to eight times before
clamping; that data-dependent consumption is what made whole-run batching
impossible, and reflection replaces it with the same step-length bound and
no boundary pile-up.)
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.mobility.base import MobilityModel
from repro.stats.rng import make_rng
from repro.types import Positions


class DrunkardModel(MobilityModel):
    """Random-walk mobility with per-step pauses and stationary nodes.

    Args:
        step_radius: the radius ``m`` of the disk from which the next
            position is drawn.
        ppause: probability that a mobile node does not move at a step.
        pstationary: probability that a node never moves.
    """

    def __init__(
        self,
        step_radius: float = 1.0,
        ppause: float = 0.0,
        pstationary: float = 0.0,
    ) -> None:
        super().__init__(pstationary=pstationary)
        if step_radius <= 0:
            raise ConfigurationError(
                f"step_radius must be positive, got {step_radius}"
            )
        if not 0.0 <= ppause <= 1.0:
            raise ConfigurationError(f"ppause must be in [0, 1], got {ppause}")
        self.step_radius = float(step_radius)
        self.ppause = float(ppause)

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_defaults(cls, side: float) -> "DrunkardModel":
        """The parameterisation used in Figure 3: ``pstationary=0.1``,
        ``ppause=0.3``, ``m = 0.01 * l``."""
        return cls(step_radius=max(0.01 * side, 1e-9), ppause=0.3, pstationary=0.1)

    # ------------------------------------------------------------------ #
    def _prepare(self, rng: np.random.Generator) -> None:
        # The drunkard model is memoryless; no per-node state is needed.
        return None

    def _block_width(self, dimension: int) -> int:
        """Uniforms consumed per node per step.

        A pause coin and a radius uniform, plus whatever the direction
        needs: one uniform in one and two dimensions (a sign / an angle),
        or the Box–Muller pairs of a normalised Gaussian vector above.
        """
        if dimension <= 2:
            return 3
        return 2 + 2 * ((dimension + 1) // 2)

    def _decode_block(self, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Turn a ``(..., n, width)`` uniform block into moves and offsets.

        Returns the moving mask ``(..., n)`` and the in-disk offsets
        ``(..., n, d)``: a uniform direction scaled by ``m * U^(1/d)``.
        Identical arithmetic for a single step and for a whole batch of
        steps, which is what makes :meth:`trajectory` bit-identical to
        per-step execution.
        """
        dimension = self.state.positions.shape[1]
        moving = block[..., 0] >= self.ppause
        if dimension == 1:
            radii = self.step_radius * block[..., 1]
            signs = np.where(block[..., 2] < 0.5, -1.0, 1.0)
            return moving, (signs * radii)[..., None]
        if dimension == 2:
            radii = self.step_radius * np.sqrt(block[..., 1])
            angle = (2.0 * np.pi) * block[..., 2]
            offsets = np.empty(block.shape[:-1] + (2,), dtype=np.float64)
            offsets[..., 0] = np.cos(angle) * radii
            offsets[..., 1] = np.sin(angle) * radii
            return moving, offsets
        radii = self.step_radius * block[..., 1] ** (1.0 / dimension)
        # Box–Muller: each uniform pair yields two standard normals.
        first = np.maximum(block[..., 2::2], np.finfo(np.float64).smallest_normal)
        second = block[..., 3::2]
        magnitude = np.sqrt(-2.0 * np.log(first))
        angle = (2.0 * np.pi) * second
        normals = np.empty(
            block.shape[:-1] + (magnitude.shape[-1] * 2,), dtype=np.float64
        )
        normals[..., 0::2] = magnitude * np.cos(angle)
        normals[..., 1::2] = magnitude * np.sin(angle)
        directions = normals[..., :dimension]
        # sqrt-of-sum-of-squares is bit-identical to np.linalg.norm here.
        norms = np.sqrt(np.sum(directions * directions, axis=-1, keepdims=True))
        norms = np.where(norms == 0.0, 1.0, norms)
        return moving, directions / norms * radii[..., None]

    @staticmethod
    def _reflect_escapees(region: Region, positions: np.ndarray) -> None:
        """Reflect, in place, the rows that stepped past the boundary.

        Billiard reflection is the identity on ``[0, side]``, so folding
        only the escaped rows is exactly equivalent to folding every moved
        row — while the cheap min/max guard lets the common interior step
        skip the reflection entirely.
        """
        if positions.size == 0:
            return
        side = region.side
        if positions.min() >= 0.0 and positions.max() <= side:
            return
        outside = ((positions < 0.0) | (positions > side)).any(axis=1)
        positions[outside] = region.reflect(positions[outside])

    def _advance(self, rng: np.random.Generator) -> Positions:
        state = self.state
        n, dimension = state.positions.shape
        if n == 0:
            return state.positions.copy()
        block = rng.random((n, self._block_width(dimension)))
        moving, offsets = self._decode_block(block)
        # Stationary nodes get a zero offset: adding 0.0 reproduces the
        # base class's pinning bit-for-bit, and keeps this step identical
        # to one iteration of the vectorized trajectory loop.
        active = moving & ~state.stationary_mask
        new_positions = state.positions + np.where(
            active[:, None], offsets, 0.0
        )
        self._reflect_escapees(state.region, new_positions)
        return new_positions

    # ------------------------------------------------------------------ #
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: one uniform draw and one Box–Muller transform
        for the whole block of steps.

        Bit-identical to ``steps - 1`` sequential :meth:`step` calls — the
        per-step Python work left is a position add and boundary reflection
        (the walk is sequential through the boundary), with all random draws
        and the direction/radius arithmetic done once for the whole batch.
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

        region = state.region
        blocks = generator.random((steps - 1, n, self._block_width(dimension)))
        moving, offsets = self._decode_block(blocks)
        active = moving & ~state.stationary_mask
        masked_offsets = np.where(active[..., None], offsets, 0.0)
        positions = state.positions.copy()
        for index in range(steps - 1):
            positions += masked_offsets[index]
            self._reflect_escapees(region, positions)
            frames[index + 1] = positions
        state.positions = positions.copy()
        state.step_index += steps - 1
        return frames

    def describe(self) -> str:
        return (
            f"DrunkardModel(m={self.step_radius}, ppause={self.ppause}, "
            f"pstationary={self.pstationary})"
        )
