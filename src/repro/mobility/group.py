"""Reference-point group mobility (RPGM) — extension model.

In many deployments nodes move in groups (squads of workers, vehicle
convoys, clusters of sensors on drifting platforms).  The reference point
group mobility model captures this: each group has a logical centre that
follows a random-waypoint trajectory, and each member wanders in a small
disk around its reference point.  Group mobility is interesting for the
paper's question because motion is *correlated*: a whole group can drift
away from the rest of the network, which changes how disconnections look
compared to the independent-motion models of the paper.

Draw protocol
-------------
Each step consumes the nested centre model's draws (only at its arrival
steps) followed by exactly one uniform block of fixed per-node width for
the member offsets: a radius uniform plus the direction uniforms (a sign
in one dimension, an angle in two, Box–Muller pairs for a normalised
Gaussian vector in higher dimensions — the same scheme as
:class:`~repro.mobility.drunkard.DrunkardModel`).  An earlier revision
drew offsets via ``rng.normal`` plus a separate radius array; moving to
the fixed-width uniform block is a *deliberate stream change* that makes
whole-segment batching possible: between two centre-arrival events no
draw's size depends on simulated data, so the vectorized
:meth:`ReferencePointGroupModel.trajectory` override fills every
draw-free segment with one ``rng.random((segment, n, width))`` call and
is bit-identical — frames, final state (nested centre model included)
and random stream — to per-step :meth:`~repro.mobility.base.
MobilityModel.step` calls.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.stats.rng import make_rng
from repro.types import Positions


class ReferencePointGroupModel(MobilityModel):
    """Reference-point group mobility.

    Args:
        group_count: number of groups; nodes are assigned round-robin.
        vmin, vmax, tpause: random-waypoint parameters of the group centres.
        member_radius: radius of the disk around the reference point within
            which each member's position is drawn at every step.
        pstationary: probability that a node never moves (it stays at its
            initial position regardless of its group).
    """

    def __init__(
        self,
        group_count: int = 4,
        vmin: float = 0.1,
        vmax: float = 1.0,
        tpause: int = 0,
        member_radius: float = 10.0,
        pstationary: float = 0.0,
    ) -> None:
        super().__init__(pstationary=pstationary)
        if group_count < 1:
            raise ConfigurationError(f"group_count must be at least 1, got {group_count}")
        if member_radius <= 0:
            raise ConfigurationError(
                f"member_radius must be positive, got {member_radius}"
            )
        self.group_count = int(group_count)
        self.member_radius = float(member_radius)
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.tpause = int(tpause)
        # The group centres are moved by an internal random waypoint model.
        self._center_model = RandomWaypointModel(
            vmin=vmin, vmax=vmax, tpause=tpause, pstationary=0.0
        )
        self._assignment: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _prepare(self, rng: np.random.Generator) -> None:
        state = self.state
        n = state.node_count
        groups = min(self.group_count, max(n, 1))
        self._assignment = np.arange(n) % groups if n else np.zeros(0, dtype=int)
        # Initial reference points: the centroid of each group's members
        # (clamped into the region), so the model starts consistent with the
        # supplied placement.
        centers = np.zeros((groups, state.region.dimension))
        for group in range(groups):
            members = state.positions[self._assignment == group]
            if members.shape[0]:
                centers[group] = members.mean(axis=0)
            else:
                centers[group] = state.region.sample_point(rng)
        centers = state.region.clamp(centers)
        self._center_model.initialize(centers, state.region, rng)

    def _advance(self, rng: np.random.Generator) -> Positions:
        state = self.state
        assert self._assignment is not None
        positions = state.positions.copy()
        n = state.node_count
        if n == 0:
            return positions
        centers = self._center_model.step(rng)
        block = rng.random((n, self._member_block_width(state.region.dimension)))
        offsets = self._decode_member_block(block)
        positions = centers[self._assignment] + offsets
        return state.region.clamp(positions)

    def _member_block_width(self, dimension: int) -> int:
        """Uniforms consumed per member per step.

        A radius uniform plus whatever the direction needs: one uniform in
        one and two dimensions (a sign / an angle), or the Box–Muller
        pairs of a normalised Gaussian vector above.
        """
        if dimension <= 2:
            return 2
        return 1 + 2 * ((dimension + 1) // 2)

    def _decode_member_block(self, block: np.ndarray) -> np.ndarray:
        """Turn a ``(..., n, width)`` uniform block into in-disk offsets.

        A uniform direction scaled by ``member_radius * U^(1/d)`` — uniform
        in the member disk.  Identical arithmetic for a single step and
        for a whole batch of steps, which is what makes :meth:`trajectory`
        bit-identical to per-step execution.
        """
        dimension = self.state.positions.shape[1]
        radii = self.member_radius * block[..., 0] ** (1.0 / dimension)
        if dimension == 1:
            signs = np.where(block[..., 1] < 0.5, -1.0, 1.0)
            return (signs * radii)[..., None]
        if dimension == 2:
            angle = (2.0 * np.pi) * block[..., 1]
            offsets = np.empty(block.shape[:-1] + (2,), dtype=np.float64)
            offsets[..., 0] = np.cos(angle) * radii
            offsets[..., 1] = np.sin(angle) * radii
            return offsets
        # Box–Muller: each uniform pair yields two standard normals.
        first = np.maximum(block[..., 1::2], np.finfo(np.float64).smallest_normal)
        second = block[..., 2::2]
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
        return directions / norms * radii[..., None]

    # ------------------------------------------------------------------ #
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: whole draw-free segments at a time.

        Between two arrival events of the nested centre model no draw's
        size or order depends on simulated data, so each such segment is
        filled with one batched centre trajectory (which consumes no
        draws), one ``rng.random((segment, n, width))`` member block and
        one decode.  At each centre-arrival step the centre advances via
        :meth:`~repro.mobility.base.MobilityModel.step` — placing its
        destination/speed draws at exactly the stream position sequential
        execution would — followed by that step's member block.  The
        result is bit-identical to ``steps - 1`` sequential :meth:`step`
        calls: frames, final state (nested centre model included) and the
        random stream left behind.
        """
        if steps < 1:
            raise ConfigurationError(f"steps must be at least 1, got {steps}")
        state = self.state
        generator = make_rng(rng)
        n, dimension = state.positions.shape
        frames = np.empty((steps, n, dimension), dtype=float)
        frames[0] = state.positions
        if steps == 1 or n == 0:
            # An empty network still "takes" the steps; the centre model
            # never advances for one (sequential steps return before it).
            state.step_index += steps - 1
            return frames

        assert self._assignment is not None
        region = state.region
        assignment = self._assignment
        width = self._member_block_width(dimension)
        last = steps - 1
        filled = 0
        while filled < last:
            upcoming = self._center_model.steps_until_next_arrival()
            quiet = min(upcoming - 1, last - filled)
            if quiet > 0:
                # Frame 0 of the centre trajectory is its current position;
                # the slice keeps the ``quiet`` new frames.  No centre
                # arrival lies within the segment, so this consumes no
                # draws — the member blocks below are the stream's next.
                centers = self._center_model.trajectory(quiet + 1, generator)[1:]
                block = generator.random((quiet, n, width))
                offsets = self._decode_member_block(block)
                batch = centers[:, assignment, :] + offsets
                frames[filled + 1 : filled + quiet + 1] = np.clip(
                    batch, 0.0, region.side
                )
                filled += quiet
            if filled >= last:
                break
            # Centre-arrival step: the centre draws its new destinations
            # and speeds here, in exactly the sequential stream position.
            centers_now = self._center_model.step(generator)
            block = generator.random((n, width))
            offsets = self._decode_member_block(block)
            frames[filled + 1] = np.clip(
                centers_now[assignment] + offsets, 0.0, region.side
            )
            filled += 1

        # Stationary nodes are pinned to wherever they started.
        mask = state.stationary_mask
        if mask.any():
            frames[:, mask] = state.positions[mask]
        state.positions = frames[last].copy()
        state.step_index += last
        return frames

    def group_of(self, node: int) -> int:
        """Group index of ``node`` (after initialisation)."""
        assert self._assignment is not None, "model not initialised"
        return int(self._assignment[node])

    def describe(self) -> str:
        return (
            f"ReferencePointGroupModel(groups={self.group_count}, "
            f"member_radius={self.member_radius}, vmin={self.vmin}, "
            f"vmax={self.vmax}, tpause={self.tpause}, "
            f"pstationary={self.pstationary})"
        )
