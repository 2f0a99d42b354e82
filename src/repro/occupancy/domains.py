"""Growth domains of the occupancy problem.

The asymptotic law of ``mu(n, C)`` depends on how ``n`` grows relative to
``C`` (Section 2 of the paper):

* **central domain (CD)** — ``n = Theta(C)``;
* **right-hand domain (RHD)** — ``n = Theta(C log C)``;
* **left-hand domain (LHD)** — ``n = Theta(sqrt(C))``;
* **right-hand intermediate domain (RHID)** — ``n = Omega(C)`` but
  ``n << C log C``;
* **left-hand intermediate domain (LHID)** — ``n = O(C)`` but
  ``n >> sqrt(C)``.

Domains are asymptotic notions; for finite inputs the classifier applies
the natural finite-size reading of the definitions with a tolerance factor
so that, e.g., ``n = 2 C`` classifies as CD and ``n = C log C`` as RHD.
The regime that matters to the paper's Theorem 4 is the RHID, which is
where ``l << r n << l log l`` lands.
"""

from __future__ import annotations

import enum
import math

from repro.exceptions import AnalysisError


class OccupancyDomain(enum.Enum):
    """The five growth domains of Theorem 2."""

    LEFT_HAND = "LHD"
    LEFT_INTERMEDIATE = "LHID"
    CENTRAL = "CD"
    RIGHT_INTERMEDIATE = "RHID"
    RIGHT_HAND = "RHD"


def classify_domain(n: float, cells: float, tolerance: float = 4.0) -> OccupancyDomain:
    """Classify the pair ``(n, C)`` into one of the five growth domains.

    Args:
        n: number of balls.
        cells: number of cells ``C``; must be at least 2 so ``log C > 0``.
        tolerance: multiplicative slack applied to the Theta comparisons;
            ``n`` counts as ``Theta(f(C))`` when
            ``f(C) / tolerance <= n <= tolerance * f(C)``.

    When the tolerance windows of two Theta-domains overlap (which happens
    for moderate ``C``), the pair resolves to the Theta-domain whose target
    is closest to ``n`` in log-space.
    """
    if n < 0:
        raise AnalysisError(f"number of balls must be non-negative, got {n}")
    if cells < 2:
        raise AnalysisError(f"number of cells must be at least 2, got {cells}")
    if tolerance < 1.0:
        raise AnalysisError(f"tolerance must be >= 1, got {tolerance}")

    log_c = math.log(cells)
    sqrt_c = math.sqrt(cells)
    targets = {
        OccupancyDomain.LEFT_HAND: sqrt_c,
        OccupancyDomain.CENTRAL: float(cells),
        OccupancyDomain.RIGHT_HAND: cells * log_c,
    }

    if n > 0:
        candidates = [
            (abs(math.log(n) - math.log(target)), domain)
            for domain, target in targets.items()
            if target / tolerance <= n <= target * tolerance
        ]
        if candidates:
            candidates.sort(key=lambda item: item[0])
            return candidates[0][1]

    if n > cells:
        # n grows faster than C but slower than C log C.
        return OccupancyDomain.RIGHT_INTERMEDIATE
    if n > sqrt_c:
        return OccupancyDomain.LEFT_INTERMEDIATE
    # Below sqrt(C): the left-hand domain is the closest description.
    return OccupancyDomain.LEFT_HAND
