"""The random waypoint mobility model.

The classical model of Johnson & Maltz [2], as parameterised by the paper:

* every node chooses a destination uniformly at random in the region and a
  speed uniformly at random in ``[vmin, vmax]``;
* it moves toward the destination in straight-line steps of length equal to
  its speed (one step = one simulation time unit);
* on arrival it pauses for ``tpause`` steps, then picks a new destination
  and speed;
* with probability ``pstationary`` a node never moves at all (handled by
  the base class).

The paper's "moderate mobility" default is ``pstationary=0, vmin=0.1,
vmax=0.01*l, tpause=2000``.

Leg arithmetic
--------------
A node's walk is a sequence of *legs*.  Each leg stores its origin, unit
direction, length and an elapsed-step counter, and every cruise position is
the closed form ``origin + unit * (speed * elapsed)``; a node arrives when
``speed * (elapsed + 1) >= length``.  Because per-step and whole-trajectory
execution evaluate exactly the same expressions, the vectorized
:meth:`RandomWaypointModel.trajectory` override (which fills each node's
frames one leg segment at a time and batches the destination/speed draws at
each arrival event) is bit-identical to ``steps - 1`` sequential
:meth:`~repro.mobility.base.MobilityModel.step` calls — including the random
stream it leaves behind.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.stats.rng import make_rng
from repro.types import Positions


#: Arrivals at least this many steps away are "beyond any horizon": the
#: exact step no longer matters (no trajectory is that long), so the
#: estimate is returned uncorrected.  Far below int64 overflow even after
#: adding a pause time and an absolute frame index.
_DISTANT_ARRIVAL = 2**60


def _steps_to_arrival(
    speeds: np.ndarray, elapsed: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Number of further cruise attempts until each leg arrives.

    Returns, per node, the smallest ``j >= 1`` with
    ``speed * (elapsed + j) >= length`` — evaluated with exactly the
    arithmetic the per-step arrival test uses, so an estimate from the
    closed form is corrected against the real predicate (floating point
    division can be off by one step near exact multiples).  Estimates of
    :data:`_DISTANT_ARRIVAL` steps or more (degenerately slow nodes —
    where the float estimate may not even fit an int64) are clamped there
    and skipped by the exact correction, since only "later than the
    trajectory horizon" matters for them.
    """
    estimate = np.ceil(lengths / speeds) - elapsed
    near = estimate < _DISTANT_ARRIVAL
    attempts = np.where(near, np.maximum(estimate, 1.0), _DISTANT_ARRIVAL)
    attempts = attempts.astype(np.int64)
    # Correct the estimate against the exact per-step predicate.
    while True:
        overshoot = (
            near
            & (attempts > 1)
            & (speeds * (elapsed + attempts - 1) >= lengths)
        )
        if not overshoot.any():
            break
        attempts[overshoot] -= 1
    while True:
        undershoot = near & (speeds * (elapsed + attempts) < lengths)
        if not undershoot.any():
            break
        attempts[undershoot] += 1
    return attempts


class RandomWaypointModel(MobilityModel):
    """Random waypoint mobility with pauses and stationary nodes.

    Args:
        vmin: minimum speed (distance per step); must be positive.
        vmax: maximum speed; must be at least ``vmin``.
        tpause: number of steps a node rests after reaching its destination.
        pstationary: probability that a node never moves.
    """

    def __init__(
        self,
        vmin: float = 0.1,
        vmax: float = 1.0,
        tpause: int = 0,
        pstationary: float = 0.0,
    ) -> None:
        super().__init__(pstationary=pstationary)
        if vmin <= 0:
            raise ConfigurationError(f"vmin must be positive, got {vmin}")
        if vmax < vmin:
            raise ConfigurationError(
                f"vmax ({vmax}) must be at least vmin ({vmin})"
            )
        if tpause < 0:
            raise ConfigurationError(f"tpause must be non-negative, got {tpause}")
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.tpause = int(tpause)
        self._destinations: Optional[np.ndarray] = None
        self._speeds: Optional[np.ndarray] = None
        self._pause_remaining: Optional[np.ndarray] = None
        self._leg_origins: Optional[np.ndarray] = None
        self._leg_units: Optional[np.ndarray] = None
        self._leg_lengths: Optional[np.ndarray] = None
        self._leg_elapsed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_defaults(cls, side: float, pstationary: float = 0.0) -> "RandomWaypointModel":
        """The parameterisation used throughout Section 4.2 of the paper.

        ``vmin = 0.1``, ``vmax = 0.01 * l``, ``tpause = 2000``.
        """
        vmax = max(0.01 * side, 0.1)
        return cls(vmin=0.1, vmax=vmax, tpause=2000, pstationary=pstationary)

    # ------------------------------------------------------------------ #
    def _prepare(self, rng: np.random.Generator) -> None:
        state = self.state
        n = state.node_count
        destinations = state.region.sample_uniform(n, rng)
        speeds = rng.uniform(self.vmin, self.vmax, size=n)
        self._destinations = np.empty_like(state.positions)
        self._speeds = np.empty(n, dtype=float)
        self._pause_remaining = np.zeros(n, dtype=np.int64)
        self._leg_origins = np.empty_like(state.positions)
        self._leg_units = np.empty_like(state.positions)
        self._leg_lengths = np.empty(n, dtype=float)
        self._leg_elapsed = np.zeros(n, dtype=np.int64)
        self._begin_leg(np.arange(n), state.positions, destinations, speeds)

    def _begin_leg(
        self,
        indices: np.ndarray,
        origins: np.ndarray,
        destinations: np.ndarray,
        speeds: np.ndarray,
    ) -> None:
        """Start a fresh leg for ``indices``: origin, unit direction, length."""
        self._destinations[indices] = destinations
        self._speeds[indices] = speeds
        self._leg_origins[indices] = origins
        deltas = destinations - origins
        # sqrt-of-sum-of-squares is bit-identical to np.linalg.norm here.
        lengths = np.sqrt(np.sum(deltas * deltas, axis=1))
        self._leg_lengths[indices] = lengths
        safe = np.where(lengths > 0.0, lengths, 1.0)
        self._leg_units[indices] = deltas / safe[:, None]
        self._leg_elapsed[indices] = 0

    def steps_until_next_arrival(self) -> int:
        """Number of further :meth:`step` calls until the first one that draws.

        The next ``k - 1`` steps of this model consume no random draws
        (pause countdowns and closed-form cruising only); the ``k``-th step
        hits the earliest arrival and draws the arriving nodes' new
        destinations and speeds.  Non-mutating — models that nest a
        waypoint instance (:class:`~repro.mobility.group.
        ReferencePointGroupModel`) use this to size the draw-free segments
        their vectorized trajectories can batch through.  An empty model
        never draws; it reports the :data:`_DISTANT_ARRIVAL` horizon.
        """
        if self.state.node_count == 0:
            return _DISTANT_ARRIVAL
        horizon = self._pause_remaining + _steps_to_arrival(
            self._speeds, self._leg_elapsed, self._leg_lengths
        )
        return int(horizon.min())

    def _advance(self, rng: np.random.Generator) -> Positions:
        state = self.state
        positions = state.positions.copy()
        n = state.node_count
        if n == 0:
            return positions

        # Nodes currently pausing simply count down.
        pausing = self._pause_remaining > 0
        self._pause_remaining[pausing] -= 1

        moving = ~pausing
        if moving.any():
            arrive = moving & (
                self._speeds * (self._leg_elapsed + 1) >= self._leg_lengths
            )
            cruising = moving & ~arrive

            # Nodes that reach their destination this step snap to it and
            # start pausing; the next leg is drawn immediately so that the
            # node resumes as soon as the pause expires.
            if arrive.any():
                arriving_indices = np.nonzero(arrive)[0]
                positions[arriving_indices] = self._destinations[arriving_indices]
                self._pause_remaining[arriving_indices] = self.tpause
                count = arriving_indices.size
                new_destinations = state.region.sample_uniform(count, rng)
                new_speeds = rng.uniform(self.vmin, self.vmax, size=count)
                self._begin_leg(
                    arriving_indices,
                    positions[arriving_indices],
                    new_destinations,
                    new_speeds,
                )

            if cruising.any():
                cruising_indices = np.nonzero(cruising)[0]
                self._leg_elapsed[cruising_indices] += 1
                travelled = (
                    self._speeds[cruising_indices]
                    * self._leg_elapsed[cruising_indices]
                )
                positions[cruising_indices] = (
                    self._leg_origins[cruising_indices]
                    + self._leg_units[cruising_indices] * travelled[:, None]
                )

        return positions

    # ------------------------------------------------------------------ #
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Vectorized batch: whole legs at a time, draws batched per arrival.

        Bit-identical to ``steps - 1`` sequential :meth:`step` calls (frames,
        final model state and random stream): positions use the same
        closed-form leg arithmetic, and destination/speed draws happen at
        exactly the arrival steps the sequential execution would hit, for
        the same node sets in the same order.  The Python loop runs per
        *arrival event* — a handful of times per node per run — while every
        pause/cruise segment in between is filled with one slice assignment.
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
        last = steps - 1
        pause = self._pause_remaining
        elapsed = self._leg_elapsed
        # Next arrival step of every node, as an absolute frame index.
        next_arrival = pause + _steps_to_arrival(
            self._speeds, elapsed, self._leg_lengths
        )
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
                travelled = self._speeds[node] * np.arange(
                    elapsed[node] + 1, elapsed[node] + cruise + 1
                )
                frames[start + resting:until + 1, node] = (
                    self._leg_origins[node]
                    + self._leg_units[node] * travelled[:, None]
                )
                elapsed[node] += cruise
            filled[node] = until

        while True:
            event_step = int(next_arrival.min())
            if event_step > last:
                break
            arriving = np.nonzero(next_arrival == event_step)[0]
            for node in arriving:
                fill_node(int(node), event_step - 1)
                frames[event_step, node] = self._destinations[node]
                filled[node] = event_step
            pause[arriving] = self.tpause
            count = arriving.size
            new_destinations = region.sample_uniform(count, generator)
            new_speeds = generator.uniform(self.vmin, self.vmax, size=count)
            self._begin_leg(
                arriving, self._destinations[arriving].copy(),
                new_destinations, new_speeds,
            )
            next_arrival[arriving] = (
                event_step
                + self.tpause
                + _steps_to_arrival(
                    new_speeds, elapsed[arriving], self._leg_lengths[arriving]
                )
            )

        for node in range(n):
            fill_node(node, last)

        # Stationary nodes are pinned to wherever they started.
        mask = state.stationary_mask
        if mask.any():
            frames[:, mask] = state.positions[mask]
        self._clamp_frames_like_step(frames)
        state.positions = frames[last].copy()
        state.step_index += last
        return frames

    def _clamp_frames_like_step(self, frames: np.ndarray) -> None:
        """Apply the per-step containment check of the base class per frame."""
        region = self.state.region
        tolerance = 1e-9
        outside = ~np.all(
            (frames >= -tolerance) & (frames <= region.side + tolerance),
            axis=(1, 2),
        )
        if outside.any():
            frames[outside] = np.clip(frames[outside], 0.0, region.side)

    def describe(self) -> str:
        return (
            f"RandomWaypointModel(vmin={self.vmin}, vmax={self.vmax}, "
            f"tpause={self.tpause}, pstationary={self.pstationary})"
        )
