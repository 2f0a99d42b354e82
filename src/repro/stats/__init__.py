"""Deterministic seeding shared by the simulation and analysis layers.

:mod:`repro.stats.rng` derives every random stream from a seed with
:class:`numpy.random.Generator`: one child stream per iteration or per
parameter value, so results do not depend on the order of the work.
"""

from repro.stats.rng import RandomSource, make_rng, value_rng

__all__ = [
    "RandomSource",
    "make_rng",
    "value_rng",
]
