"""Exact occupancy formulas.

For ``n`` balls thrown independently and uniformly into ``C`` cells, the
number of empty cells ``mu(n, C)`` has (Section 2 of the paper, following
Kolchin, Sevast'yanov & Chistyakov):

* ``P(mu = 0) = sum_{i=0}^{C} (-1)^i binom(C, i) (1 - i/C)^n``
* ``E[mu]     = C (1 - 1/C)^n``
* ``Var[mu]   = C (C-1) (1 - 2/C)^n + C (1 - 1/C)^n - C^2 (1 - 1/C)^{2n}``

The general pmf ``P(mu = k)`` follows from the classical inclusion–
exclusion count of surjections: the probability that *exactly* ``k``
specified cells are empty and the rest are all occupied.
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def _validate(n: int, cells: int) -> None:
    if n < 0:
        raise AnalysisError(f"number of balls must be non-negative, got {n}")
    if cells <= 0:
        raise AnalysisError(f"number of cells must be positive, got {cells}")


def empty_cells_mean(n: int, cells: int) -> float:
    """``E[mu(n, C)] = C (1 - 1/C)^n``."""
    _validate(n, cells)
    if cells == 1:
        return 0.0 if n > 0 else 1.0
    return cells * (1.0 - 1.0 / cells) ** n


def empty_cells_variance(n: int, cells: int) -> float:
    """``Var[mu(n, C)]`` from the exact formula quoted in Section 2."""
    _validate(n, cells)
    C = float(cells)
    if cells == 1:
        return 0.0
    term_pairs = C * (C - 1.0) * (1.0 - 2.0 / C) ** n
    term_mean = C * (1.0 - 1.0 / C) ** n
    term_square = (C * (1.0 - 1.0 / C) ** n) ** 2
    variance = term_pairs + term_mean - term_square
    # The formula can produce tiny negatives through cancellation.
    return max(variance, 0.0)


def log_binomial(a: int, b: int) -> float:
    """``log binom(a, b)`` via lgamma (valid for 0 <= b <= a)."""
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def probability_all_cells_occupied(n: int, cells: int) -> float:
    """``P(mu(n, C) = 0)`` — every cell receives at least one ball.

    Computed by inclusion–exclusion in a numerically careful way (terms are
    combined in log space and accumulated with alternating signs).
    """
    _validate(n, cells)
    if n < cells:
        return 0.0
    total = 0.0
    for i in range(cells + 1):
        fraction = 1.0 - i / cells
        if fraction == 0.0:
            # (1 - C/C)^n is zero unless n == 0 (handled by n < cells above).
            continue
        log_term = log_binomial(cells, i) + n * math.log(fraction)
        term = math.exp(log_term)
        total += term if i % 2 == 0 else -term
    return min(max(total, 0.0), 1.0)


def empty_cells_pmf(n: int, cells: int, k: int) -> float:
    """``P(mu(n, C) = k)`` — probability that exactly ``k`` cells are empty.

    Exactly ``k`` of the ``C`` cells are empty iff the ``n`` balls all land
    in a specific set of ``C - k`` cells *and* cover all of them::

        P(mu = k) = binom(C, k) * ((C-k)/C)^n * P(all of C-k cells occupied)

    where the last factor is ``P(mu(n, C-k) = 0)``.
    """
    _validate(n, cells)
    if k < 0 or k > cells:
        return 0.0
    if k == cells:
        return 1.0 if n == 0 else 0.0
    occupied = cells - k
    if n < occupied:
        return 0.0
    log_choose = log_binomial(cells, k)
    log_land = n * math.log(occupied / cells)
    cover = probability_all_cells_occupied(n, occupied)
    if cover == 0.0:
        return 0.0
    value = math.exp(log_choose + log_land + math.log(cover))
    return min(max(value, 0.0), 1.0)
