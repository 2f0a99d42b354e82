"""Statistics utilities shared by the simulation and analysis layers.

The sub-modules are intentionally small and dependency free:

* :mod:`repro.stats.rng` — deterministic seeding helpers built on
  :class:`numpy.random.Generator`.
* :mod:`repro.stats.summary` — summary statistics and confidence intervals
  for the Monte-Carlo estimates produced by the simulator.
* :mod:`repro.stats.distributions` — normal and Poisson distribution
  helpers used by the occupancy-theory limit laws (Theorem 2 of the paper).
"""

from repro.stats.distributions import (
    normal_cdf,
    normal_pdf,
    poisson_cdf,
    poisson_pmf,
)
from repro.stats.rng import RandomSource, make_rng, spawn_rngs, value_rng
from repro.stats.summary import (
    SummaryStatistics,
    confidence_interval,
    summarize,
)

__all__ = [
    "RandomSource",
    "SummaryStatistics",
    "confidence_interval",
    "make_rng",
    "normal_cdf",
    "normal_pdf",
    "poisson_cdf",
    "poisson_pmf",
    "spawn_rngs",
    "summarize",
    "value_rng",
]
