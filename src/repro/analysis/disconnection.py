"""Occupancy-based estimates of disconnection probability (Section 3).

The paper's lower-bound argument (Theorem 4) runs as follows: divide the
line into ``C = l / r`` cells; if the occupancy bit string contains a
``{10*1}`` pattern (an interior empty cell between occupied cells) the
graph is disconnected (Lemma 1); condition on the number of empty cells
``mu(n, C)`` and show that for ``l << r n << l log l`` the term at
``k = E[mu]`` contributes a non-vanishing probability.

Two estimators feed the ``theorem5-1d`` experiment:

* :func:`gap_event_probability_estimate` — ``P(E^{10*1})`` estimated via the
  conditional decomposition of Equation (1);
* :func:`isolated_node_probability_1d` — the weaker "isolated node" bound
  used by the earlier work [11] the paper improves on.
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError
from repro.occupancy.exact import empty_cells_pmf, log_binomial


def _conditional_gap_probability(k: int, cells: int) -> float:
    """``P(E^{10*1} | mu = k)`` — from the proof of Lemma 2.

    Given exactly ``k`` empty cells out of ``C``, the complement of the gap
    event is "all the occupied cells are consecutive", which happens for
    ``(k + 1)`` of the ``binom(C, k)`` equally likely empty-cell patterns::

        P(no gap | mu = k) = (k + 1) / binom(C, k)

    so ``P(gap | mu = k) = 1 - (k + 1) / binom(C, k)``.
    """
    if k < 0 or k > cells:
        raise AnalysisError(f"k must be in [0, C], got k={k}, C={cells}")
    if k == 0 or k == cells:
        return 0.0
    log_no_gap = math.log(k + 1) - log_binomial(cells, k)
    no_gap = math.exp(log_no_gap) if log_no_gap < 0 else 1.0
    return max(0.0, 1.0 - min(no_gap, 1.0))


def gap_event_probability_estimate(n: int, cells: int) -> float:
    """Estimate of ``P(E^{10*1})`` via the decomposition of Equation (1).

    ``P(E^{10*1}) = sum_k P(E^{10*1} | mu = k) P(mu = k)`` with the exact
    conditional probability above and the exact occupancy pmf.  The sum is
    exact up to the approximation that, conditional on ``mu = k``, all
    empty-cell patterns are equally likely — which holds for the
    multinomial allocation used here, making this an accurate predictor of
    the sufficient-condition probability of Lemma 1.
    """
    if n < 0:
        raise AnalysisError(f"n must be non-negative, got {n}")
    if cells <= 0:
        raise AnalysisError(f"cells must be positive, got {cells}")
    total = 0.0
    for k in range(cells + 1):
        conditional = _conditional_gap_probability(k, cells)
        if conditional == 0.0:
            continue
        weight = empty_cells_pmf(n, cells, k)
        if weight == 0.0:
            continue
        total += conditional * weight
    return min(max(total, 0.0), 1.0)


def isolated_node_probability_1d(n: int, side: float, transmitting_range: float) -> float:
    """Probability that at least one node is isolated (union-bound style).

    The earlier lower bound of [11] analyses isolated nodes.  For a node in
    the interior of the line the probability that no other node falls within
    distance ``r`` is approximately ``(1 - 2r/l)^{n-1}`` (boundary nodes
    have ``(1 - r/l)^{n-1}``); the union bound over nodes gives an upper
    estimate that is informative when small.
    """
    if n < 1:
        raise AnalysisError(f"n must be at least 1, got {n}")
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    if transmitting_range < 0:
        raise AnalysisError(
            f"transmitting_range must be non-negative, got {transmitting_range}"
        )
    if transmitting_range >= side:
        return 0.0
    interior = max(1.0 - 2.0 * transmitting_range / side, 0.0) ** (n - 1)
    estimate = n * interior
    return min(estimate, 1.0)
