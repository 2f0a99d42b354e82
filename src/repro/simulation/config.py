"""Declarative configuration of simulation runs.

A run is described by three pieces:

* :class:`NetworkConfig` — how many nodes, in what region (placed
  uniformly at random, the model the paper analyses);
* :class:`MobilitySpec` — which mobility model with which parameters
  (stored by name so configurations serialise to JSON);
* :class:`SimulationConfig` — the two above plus the number of mobility
  steps, iterations and the root seed.

The paper's experiment of Section 4.2 corresponds to
``SimulationConfig.paper_waypoint(side)`` and ``.paper_drunkard(side)``,
whose node count follows the paper's scaling :func:`paper_node_count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.mobility import model_by_name
from repro.mobility.base import MobilityModel


def paper_node_count(side: float) -> int:
    """The paper's system-size scaling ``n = sqrt(l)`` (Section 4.2), at least 2."""
    return max(2, int(round(math.sqrt(side))))


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the network: size and region."""

    node_count: int
    side: float
    dimension: int = 2

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError(
                f"node_count must be at least 1, got {self.node_count}"
            )
        if self.side <= 0:
            raise ConfigurationError(f"side must be positive, got {self.side}")
        if self.dimension < 1:
            raise ConfigurationError(
                f"dimension must be at least 1, got {self.dimension}"
            )

    @property
    def region(self) -> Region:
        """The deployment region ``[0, side]^dimension``."""
        return Region(side=self.side, dimension=self.dimension)

    @classmethod
    def paper_scaling(cls, side: float, dimension: int = 2) -> "NetworkConfig":
        """The paper's system-size scaling ``n = sqrt(l)`` (Section 4.2)."""
        return cls(node_count=paper_node_count(side), side=side, dimension=dimension)


@dataclass(frozen=True)
class MobilitySpec:
    """A mobility model identified by name plus constructor parameters.

    Keeping the specification declarative (rather than holding a model
    instance) lets configurations be hashed, compared and serialised, and
    guarantees each simulation iteration gets a *fresh* model instance.
    """

    name: str = "stationary"
    parameters: Dict[str, Any] = field(default_factory=dict)

    def create(self) -> MobilityModel:
        """Instantiate a fresh mobility model from the specification."""
        return model_by_name(self.name, **self.parameters)

    # Convenience constructors matching the paper's settings ------------- #
    @classmethod
    def stationary(cls) -> "MobilitySpec":
        """No mobility (the paper's ``#steps = 1`` case)."""
        return cls(name="stationary")

    @classmethod
    def paper_waypoint(cls, side: float, pstationary: float = 0.0,
                       vmin: float = 0.1, vmax: Optional[float] = None,
                       tpause: int = 2000) -> "MobilitySpec":
        """Random waypoint with the Section 4.2 defaults.

        ``vmax`` defaults to ``0.01 * side`` as in the paper.
        """
        resolved_vmax = vmax if vmax is not None else max(0.01 * side, vmin)
        return cls(
            name="waypoint",
            parameters={
                "vmin": vmin,
                "vmax": max(resolved_vmax, vmin),
                "tpause": tpause,
                "pstationary": pstationary,
            },
        )

    @classmethod
    def paper_drunkard(cls, side: float, pstationary: float = 0.1,
                       ppause: float = 0.3,
                       step_radius: Optional[float] = None) -> "MobilitySpec":
        """Drunkard model with the Figure 3 defaults (``m = 0.01 l``)."""
        resolved_m = step_radius if step_radius is not None else max(0.01 * side, 1e-9)
        return cls(
            name="drunkard",
            parameters={
                "step_radius": resolved_m,
                "ppause": ppause,
                "pstationary": pstationary,
            },
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce a mobile-connectivity run.

    A run fixes no transmitting range: it produces per-frame statistics,
    and the answer at any range is a query on them (see
    :mod:`repro.simulation.results`).  The iterations of a run execute
    serially, each on its own child random stream derived from ``seed``;
    parallelism lives one level up, where parameter values run as
    independent tasks of the campaign scheduler (see
    :mod:`repro.campaigns.scheduler`).
    """

    network: NetworkConfig
    mobility: MobilitySpec = field(default_factory=MobilitySpec.stationary)
    steps: int = 1
    iterations: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError(f"steps must be at least 1, got {self.steps}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be at least 1, got {self.iterations}"
            )

    # Paper presets ------------------------------------------------------ #
    @classmethod
    def paper_waypoint(
        cls,
        side: float,
        steps: int = 10000,
        iterations: int = 50,
        seed: Optional[int] = None,
        pstationary: float = 0.0,
    ) -> "SimulationConfig":
        """The Figure 2 configuration (scaled sizes can override steps/iterations)."""
        return cls(
            network=NetworkConfig.paper_scaling(side),
            mobility=MobilitySpec.paper_waypoint(side, pstationary=pstationary),
            steps=steps,
            iterations=iterations,
            seed=seed,
        )

    @classmethod
    def paper_drunkard(
        cls,
        side: float,
        steps: int = 10000,
        iterations: int = 50,
        seed: Optional[int] = None,
    ) -> "SimulationConfig":
        """The Figure 3 configuration."""
        return cls(
            network=NetworkConfig.paper_scaling(side),
            mobility=MobilitySpec.paper_drunkard(side),
            steps=steps,
            iterations=iterations,
            seed=seed,
        )
