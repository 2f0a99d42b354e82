"""Occupancy theory (balls into cells) used by the paper's 1-D analysis.

Section 3 of the paper subdivides the line ``[0, l]`` into ``C = l / r``
cells of length ``r`` and reasons about the random variable ``mu(n, C)``,
the number of empty cells after ``n`` nodes (balls) land uniformly at
random.  This package implements what the ``occupancy-domains`` and
``theorem5-1d`` experiments use:

* the exact pmf, expectation and variance of ``mu(n, C)``
  (:mod:`repro.occupancy.exact`),
* the asymptotic moments of Theorem 1 (:mod:`repro.occupancy.asymptotic`),
* the five growth domains (CD, RHD, LHD, RHID, LHID) of Theorem 2
  (:mod:`repro.occupancy.domains`), and
* the cell bit-string machinery of Lemma 1, including detection of the
  ``{10*1}`` pattern whose occurrence forces a disconnected communication
  graph, and Monte-Carlo samples of ``mu(n, C)``
  (:mod:`repro.occupancy.cells`).
"""

from repro.occupancy.asymptotic import (
    asymptotic_empty_cells_mean,
    asymptotic_empty_cells_variance,
)
from repro.occupancy.cells import (
    CellOccupancy,
    cell_counts,
    cell_occupancy_from_positions,
    has_gap_pattern,
)
from repro.occupancy.domains import OccupancyDomain, classify_domain
from repro.occupancy.exact import (
    empty_cells_mean,
    empty_cells_pmf,
    empty_cells_variance,
)

__all__ = [
    "CellOccupancy",
    "OccupancyDomain",
    "asymptotic_empty_cells_mean",
    "asymptotic_empty_cells_variance",
    "cell_counts",
    "cell_occupancy_from_positions",
    "classify_domain",
    "empty_cells_mean",
    "empty_cells_pmf",
    "empty_cells_variance",
    "has_gap_pattern",
]
