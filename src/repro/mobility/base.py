"""Base classes of the mobility framework.

A mobility model is a stateful object: :meth:`MobilityModel.initialize`
binds it to a region and an initial placement, and every subsequent call to
:meth:`MobilityModel.step` advances all nodes by one mobility step and
returns the new ``(n, d)`` position array.  The simulator asks a model for
whole blocks of frames through :meth:`MobilityModel.trajectory`, which every
model implements for a block of steps at once; :meth:`MobilityModel.step`
is the per-step reference those blocks are bit-identical to.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.geometry.region import Region
from repro.stats.rng import make_rng
from repro.types import Positions, as_positions


@dataclass
class MobilityState:
    """Mutable per-run state shared by all mobility models.

    Attributes:
        region: deployment region the nodes live in.
        positions: current ``(n, d)`` positions.
        step_index: number of steps taken since initialisation.
        stationary_mask: boolean array marking nodes that never move
            (the paper's ``pstationary`` mechanism).
    """

    region: Region
    positions: Positions
    step_index: int = 0
    stationary_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def node_count(self) -> int:
        """Number of nodes being moved."""
        return self.positions.shape[0]


class MobilityModel(abc.ABC):
    """Abstract base class of every mobility model.

    Subclasses implement :meth:`_prepare` (allocate per-node state),
    :meth:`_advance` (move the mobile nodes by one step) and
    :meth:`trajectory` (a block of steps at once).  The base class handles
    validation, the shared ``pstationary`` mechanism and bookkeeping.
    """

    def __init__(self, pstationary: float = 0.0) -> None:
        if not 0.0 <= pstationary <= 1.0:
            raise ConfigurationError(
                f"pstationary must be in [0, 1], got {pstationary}"
            )
        self.pstationary = pstationary
        self._state: Optional[MobilityState] = None

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> MobilityState:
        """Current mobility state.

        Raises:
            SimulationError: if the model has not been initialised.
        """
        if self._state is None:
            raise SimulationError(
                "mobility model must be initialised before it can be queried"
            )
        return self._state

    @property
    def is_initialized(self) -> bool:
        """``True`` once :meth:`initialize` has been called."""
        return self._state is not None

    def initialize(
        self,
        positions: Positions,
        region: Region,
        rng: Optional[np.random.Generator] = None,
    ) -> Positions:
        """Bind the model to an initial placement.

        Each node is independently marked stationary with probability
        ``pstationary``; stationary nodes keep their initial position for
        the whole run.

        Returns:
            The initial positions (a defensive copy).
        """
        generator = make_rng(rng)
        points = as_positions(positions).copy()
        if points.shape[1] != region.dimension:
            raise ConfigurationError(
                f"positions have dimension {points.shape[1]}, "
                f"but the region has dimension {region.dimension}"
            )
        if not region.contains(points):
            raise ConfigurationError("initial positions must lie inside the region")
        n = points.shape[0]
        stationary = generator.random(n) < self.pstationary
        self._state = MobilityState(
            region=region,
            positions=points,
            step_index=0,
            stationary_mask=stationary,
        )
        self._prepare(generator)
        return self._state.positions.copy()

    def step(self, rng: Optional[np.random.Generator] = None) -> Positions:
        """Advance every mobile node by one mobility step.

        Returns:
            The new positions as an ``(n, d)`` array (a copy; mutating the
            result does not affect the model).
        """
        return self._step_in_place(make_rng(rng)).copy()

    def _step_in_place(self, generator: np.random.Generator) -> Positions:
        """Advance one step and return ``state.positions`` *without* copying.

        :meth:`run` discards every intermediate result, so the defensive
        copy :meth:`step` makes would be pure overhead there.  Callers must
        not mutate the returned array.
        """
        state = self.state
        new_positions = self._advance(generator)
        # Stationary nodes are pinned to wherever they started.
        mask = state.stationary_mask
        if mask.any():
            new_positions[mask] = state.positions[mask]
        if not state.region.contains(new_positions):
            new_positions = state.region.clamp(new_positions)
        state.positions = new_positions
        state.step_index += 1
        return new_positions

    @abc.abstractmethod
    def trajectory(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """The next ``steps`` frames as one ``(steps, n, d)`` array.

        Frame 0 is the *current* position array; frames ``1 .. steps - 1``
        are bit-identical to ``steps - 1`` sequential :meth:`step` calls,
        and the model state and random stream left behind are those calls'
        too, so batched and per-step simulation never differ.  Raises
        :class:`~repro.exceptions.ConfigurationError` when ``steps < 1``.
        """

    def run(
        self, steps: int, rng: Optional[np.random.Generator] = None
    ) -> Positions:
        """Advance ``steps`` times and return the final positions (a copy)."""
        if steps < 0:
            raise ConfigurationError(f"steps must be non-negative, got {steps}")
        generator = make_rng(rng)
        for _ in range(steps):
            self._step_in_place(generator)
        return self.state.positions.copy()

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _prepare(self, rng: np.random.Generator) -> None:
        """Allocate per-node state after :meth:`initialize`."""

    @abc.abstractmethod
    def _advance(self, rng: np.random.Generator) -> Positions:
        """Return the next positions for all nodes (mobile and stationary).

        The base class overwrites the rows of stationary nodes afterwards,
        so implementations may move every node uniformly.
        """

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human readable description used in experiment reports."""
        return f"{type(self).__name__}(pstationary={self.pstationary})"
