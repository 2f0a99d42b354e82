"""Analytical results of the paper (Section 3) and related theory.

* :mod:`repro.analysis.bounds_1d` — Theorems 3–5: the ``r n = Theta(l log l)``
  characterisation of asymptotically-almost-sure connectivity on a line,
  the node count it predicts for a range, and the exact finite-``n``
  connectivity probability of a uniform 1-D placement.
* :mod:`repro.analysis.disconnection` — occupancy-based estimates of the
  probability of the ``{10*1}`` gap event of Lemma 1 and of an isolated
  node.
* :mod:`repro.analysis.worst_best_case` — the worst-case (corner clusters)
  and best-case (lattice) ranges discussed after Theorem 5.
* :mod:`repro.analysis.gupta_kumar` — the 2-D dense-network comparator of
  Gupta & Kumar used to contextualise the 2-D simulations.
"""

from repro.analysis.bounds_1d import (
    critical_product_1d,
    nodes_for_connectivity_1d,
)
from repro.analysis.disconnection import (
    gap_event_probability_estimate,
    isolated_node_probability_1d,
)
from repro.analysis.gupta_kumar import gupta_kumar_critical_range
from repro.analysis.worst_best_case import best_case_range_2d, worst_case_range

__all__ = [
    "best_case_range_2d",
    "critical_product_1d",
    "gap_event_probability_estimate",
    "gupta_kumar_critical_range",
    "isolated_node_probability_1d",
    "nodes_for_connectivity_1d",
    "worst_case_range",
]
