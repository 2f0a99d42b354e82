"""Concrete node placement strategies.

Every strategy is a function ``(count, region, rng) -> positions`` returning
an ``(n, d)`` array of points inside the region.  The simulator draws
:func:`uniform_placement`; the lattice and the corner clusters are the
best and worst cases the theory compares it with.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geometry.region import Region
from repro.stats.rng import make_rng
from repro.types import Positions


def uniform_placement(
    count: int, region: Region, rng: Optional[np.random.Generator] = None
) -> Positions:
    """Independent uniform placement — the model analysed by the paper."""
    return region.sample_uniform(count, make_rng(rng))


def grid_placement(
    count: int, region: Region, rng: Optional[np.random.Generator] = None
) -> Positions:
    """Evenly spaced placement (the paper's best case for 1-D).

    In one dimension the nodes are placed at the centres of ``count`` equal
    segments, so consecutive nodes are ``l / count`` apart.  In higher
    dimensions the nodes fill the cells of the smallest square/cubic lattice
    with at least ``count`` sites, and the first ``count`` sites are used.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty((0, region.dimension), dtype=float)
    per_axis = int(math.ceil(count ** (1.0 / region.dimension)))
    # Cell centres along one axis.
    centers = (np.arange(per_axis) + 0.5) * (region.side / per_axis)
    grids = np.meshgrid(*([centers] * region.dimension), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=1)
    return lattice[:count]


def corner_clusters_placement(
    count: int,
    region: Region,
    rng: Optional[np.random.Generator] = None,
    spread: float = 0.01,
) -> Positions:
    """The paper's worst case: nodes split between two opposite corners.

    Half of the nodes (rounded up) are placed near the origin and the rest
    near the opposite corner ``(l, ..., l)``, each perturbed by uniform
    noise of width ``spread * l`` so nodes do not coincide exactly.  With
    this placement a transmitting range of order ``l`` is required for
    connectivity.
    """
    if spread < 0:
        raise ConfigurationError(f"spread must be non-negative, got {spread}")
    generator = make_rng(rng)
    if count == 0:
        return np.empty((0, region.dimension), dtype=float)
    first_half = (count + 1) // 2
    near_origin = generator.uniform(
        0.0, spread * region.side, size=(first_half, region.dimension)
    )
    near_far_corner = region.side - generator.uniform(
        0.0, spread * region.side, size=(count - first_half, region.dimension)
    )
    return np.vstack([near_origin, near_far_corner])
