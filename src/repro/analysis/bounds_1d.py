"""Theorems 3–5: the critical scaling ``r n = Theta(l log l)`` in one dimension.

Theorem 5 of the paper states that for ``n`` nodes uniform on ``[0, l]``
with ``1 << r << l``, the communication graph is asymptotically almost
surely connected **iff** ``r n ∈ Ω(l log l)``.  The functions in this
module turn that characterisation into usable predictors:

* :func:`critical_product_1d` — the threshold value ``l log l`` of the
  product ``r n``;
* :func:`nodes_for_connectivity_1d` — nodes needed for a given fixed
  transmitter range (the "dimensioning" formulation of Section 2).

There is also an exact finite-``n`` reference: the probability that a
uniform 1-D placement is connected at range ``r`` has a closed form
(the classical uniform-spacings result),
``P(connected) = sum_{k} (-1)^k binom(n-1, k) (1 - k r / l)_+^{n}`` over
``k <= l / r``, implemented in :func:`connectivity_probability_1d_exact`
and inverted by :func:`range_for_connectivity_probability_1d`, the exact
``r99`` of the ``theorem5-1d`` experiment.
"""

from __future__ import annotations

import decimal
import math

from repro.exceptions import AnalysisError
from repro.occupancy.exact import log_binomial

#: Largest rounding error the float inclusion–exclusion sum may carry,
#: bounded by ``terms * max|term| * 2**-53``; a sum past it is evaluated
#: in :mod:`decimal` instead.
FLOAT_SUM_ERROR = 1e-12

#: Decimal digits kept beyond the largest term's magnitude.
GUARD_DIGITS = 30


def critical_product_1d(side: float) -> float:
    """The Theorem 5 threshold ``l log l`` for the product ``r n``.

    For ``side <= 1`` the logarithm is non-positive; the function returns 0
    in that case (any positive product exceeds the threshold), mirroring the
    asymptotic nature of the statement.
    """
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    return side * max(math.log(side), 0.0)


def nodes_for_connectivity_1d(
    transmitting_range: float, side: float, constant: float = 1.0
) -> int:
    """Nodes needed for a.a.s. connectivity at a fixed range (dual form).

    ``n ≈ c · l log l / r``, rounded up.  This is the dimensioning question
    posed in Section 2: how many devices with a given transceiver must be
    scattered over a region of length ``l``.
    """
    if transmitting_range <= 0:
        raise AnalysisError(
            f"transmitting_range must be positive, got {transmitting_range}"
        )
    if constant <= 0:
        raise AnalysisError(f"constant must be positive, got {constant}")
    product = critical_product_1d(side)
    if product == 0.0:
        return 1
    return int(math.ceil(constant * product / transmitting_range))


def connectivity_probability_1d_exact(
    node_count: int, side: float, transmitting_range: float
) -> float:
    """Exact probability that a uniform 1-D placement is connected.

    For ``n`` points uniform on ``[0, l]`` and range ``r``, the graph is
    connected iff every one of the ``n - 1`` gaps between consecutive order
    statistics is at most ``r``.  The probability that ``k`` specified
    spacings all exceed ``r`` is ``(1 - k r / l)_+^n`` (uniform spacings),
    so inclusion–exclusion over the interior gaps gives::

        P = sum_{k=0}^{min(n-1, floor(l/r))} (-1)^k binom(n-1, k) (1 - k r / l)^n

    The terms alternate in sign and, at small ``r / l``, grow far beyond
    the result (``10**40`` and more for a few hundred nodes), so a float
    sum would cancel to noise.  The float sum is kept while its rounding
    error bound ``terms * max|term| * 2**-53`` stays within
    :data:`FLOAT_SUM_ERROR`; otherwise the same sum runs in
    :mod:`decimal` with :data:`GUARD_DIGITS` digits beyond the largest
    term's magnitude.  That bound leaves out the rounding of each term's
    ``lgamma`` log-binomial, a relative error that grows like
    ``lgamma(n) * 2**-53``: against an exact rational sum, float results
    near the switch err by up to about ``3e-12`` (``n = 48``).
    """
    if node_count < 1:
        raise AnalysisError(f"node_count must be at least 1, got {node_count}")
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    if transmitting_range < 0:
        raise AnalysisError(
            f"transmitting_range must be non-negative, got {transmitting_range}"
        )
    if node_count == 1:
        return 1.0
    if transmitting_range == 0.0:
        return 0.0
    if transmitting_range >= side:
        return 1.0
    n = node_count
    ratio = transmitting_range / side
    log_terms = []
    for k in range(n):
        base = 1.0 - k * ratio
        if base <= 0.0:
            # (1 - k r / l)_+ vanishes for every larger k as well.
            break
        log_terms.append(log_binomial(n - 1, k) + n * math.log(base))
    largest = max(log_terms)
    log_error = math.log(len(log_terms)) + largest - 53 * math.log(2)
    if log_error <= math.log(FLOAT_SUM_ERROR):
        total = 0.0
        for k, log_term in enumerate(log_terms):
            term = math.exp(log_term)
            total += term if k % 2 == 0 else -term
    else:
        total = _decimal_sum(n, transmitting_range, side, len(log_terms), largest)
    return min(max(total, 0.0), 1.0)


def _decimal_sum(
    n: int, transmitting_range: float, side: float, terms: int, largest: float
) -> float:
    """The inclusion–exclusion sum's first ``terms`` terms, in :mod:`decimal`.

    ``largest`` is the natural log of the largest term's magnitude; the
    binomials are exact integers and ``r / l`` is the exact quotient of
    the two floats.
    """
    digits = max(math.ceil(largest / math.log(10)), 0) + GUARD_DIGITS
    with decimal.localcontext() as context:
        context.prec = digits
        ratio = decimal.Decimal(transmitting_range) / decimal.Decimal(side)
        total = decimal.Decimal(0)
        for k in range(terms):
            base = 1 - k * ratio
            if base <= 0:
                break
            term = math.comb(n - 1, k) * base**n
            total += term if k % 2 == 0 else -term
        return float(total)


def range_for_connectivity_probability_1d(
    node_count: int,
    side: float,
    probability: float,
    tolerance: float = 1e-9,
) -> float:
    """Smallest range at which the exact 1-D connectivity probability reaches
    ``probability`` (bisection on :func:`connectivity_probability_1d_exact`).

    This gives a non-asymptotic "r such that P(connected) >= p" predictor
    that the experiments compare against the Theorem 5 scaling.
    """
    if not 0.0 < probability < 1.0:
        raise AnalysisError(f"probability must be in (0, 1), got {probability}")
    low, high = 0.0, side
    for _ in range(200):
        mid = 0.5 * (low + high)
        if connectivity_probability_1d_exact(node_count, side, mid) >= probability:
            high = mid
        else:
            low = mid
        if high - low <= tolerance:
            break
    return high
