"""Asymptotic occupancy formulas (Theorem 1 of the paper).

With ``alpha = n / C``, Theorem 1 states

* ``E[mu(n, C)] <= C e^{-alpha}`` for every ``n`` and ``C``;
* ``E[mu(n, C)]  = C e^{-alpha} - alpha e^{-alpha} + O((1 + alpha^2) e^{-alpha} / C)``
  as ``n, C -> infinity`` with ``alpha = o(C)``;
* ``Var[mu(n, C)] = C e^{-alpha} (1 - (1 + alpha) e^{-alpha}) + O(...)``.

These leading-order expressions are what the proof of Theorem 4 manipulates
when choosing ``k = E[mu]`` and evaluating ``P(mu = k)`` under the RHID
normal limit law.
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def _validate(n: float, cells: float) -> float:
    if n < 0:
        raise AnalysisError(f"number of balls must be non-negative, got {n}")
    if cells <= 0:
        raise AnalysisError(f"number of cells must be positive, got {cells}")
    return n / cells


def asymptotic_empty_cells_mean(n: float, cells: float) -> float:
    """Leading-order asymptotic of ``E[mu(n, C)]``:
    ``C e^{-alpha} - alpha e^{-alpha}``."""
    alpha = _validate(n, cells)
    return (cells - alpha) * math.exp(-alpha)


def asymptotic_empty_cells_variance(n: float, cells: float) -> float:
    """Leading-order asymptotic of ``Var[mu(n, C)]``:
    ``C e^{-alpha} (1 - (1 + alpha) e^{-alpha})``.

    The value is clamped at zero; for very small ``alpha`` the leading term
    can dip below zero before the correction terms kick in.
    """
    alpha = _validate(n, cells)
    value = cells * math.exp(-alpha) * (1.0 - (1.0 + alpha) * math.exp(-alpha))
    return max(value, 0.0)
