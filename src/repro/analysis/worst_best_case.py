"""Worst-case and best-case placements (discussion after Theorem 5).

The paper contrasts the random-placement result with two deterministic
extremes when ``n`` is linear in ``l``:

* **worst case** — nodes clustered at the two ends of the line require a
  transmitting range of order ``l`` (in ``d`` dimensions, of order
  ``l * sqrt(d)`` in the very worst corner-to-corner arrangement);
* **best case** — equally spaced nodes require only the constant spacing
  ``l / n`` (1-D) or the lattice spacing ``l / ceil(n^{1/d})`` (d-D).

Random placement sits in between, needing ``Theta(log l)`` when
``n = Theta(l)``.  The ``stationary-critical-range`` experiment tabulates
the two 2-D extremes (:func:`best_case_range_2d`, :func:`worst_case_range`)
beside the simulated range.
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def worst_case_range(side: float, dimension: int = 1) -> float:
    """Range required when nodes may be clustered at opposite corners.

    This is the diameter of the region, ``l * sqrt(d)`` — the value quoted
    in Section 2 as the only safe choice when nothing is known about the
    placement.
    """
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    if dimension < 1:
        raise AnalysisError(f"dimension must be at least 1, got {dimension}")
    return side * math.sqrt(dimension)


def best_case_range_2d(node_count: int, side: float) -> float:
    """Range required by a square-lattice placement in 2-D.

    ``n`` nodes on the densest square lattice covering ``[0, l]^2`` sit
    ``l / ceil(sqrt(n))`` apart along the axes; that spacing connects the
    lattice (each node reaches its axis-aligned neighbours).
    """
    if node_count < 1:
        raise AnalysisError(f"node_count must be at least 1, got {node_count}")
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    if node_count == 1:
        return 0.0
    per_axis = int(math.ceil(math.sqrt(node_count)))
    return side / per_axis
