"""The Gupta–Kumar dense-network comparator.

The related work discussed in Section 2 ([4] Gupta & Kumar) studies the
critical transmitting range of ``n`` nodes uniform in a *fixed* unit-area
region as ``n`` grows: connectivity w.h.p. requires

    pi * r(n)^2 = (log n + c(n)) / n   with c(n) -> infinity.

Rescaled to the paper's region of side ``l`` (area ``l^2``), the critical
range becomes ``l * sqrt((log n + c) / (pi n))``.  The 2-D experiments use
this as an analytical sanity check of the simulated ``rstationary`` values:
the simulated stationary critical range for ``n = sqrt(l)`` nodes in
``[0, l]^2`` should track this curve up to a modest constant.
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def gupta_kumar_critical_range(
    node_count: int, side: float = 1.0, constant: float = 0.0
) -> float:
    """Critical range ``l sqrt((log n + c) / (pi n))`` of Gupta & Kumar.

    Args:
        node_count: number of nodes ``n`` (at least 2 so ``log n > 0``).
        side: side of the square deployment region (the original result is
            stated for the unit square / disk; we rescale linearly).
        constant: the additive term ``c`` — 0 gives the threshold itself,
            positive values give ranges that are connected w.h.p.
    """
    if node_count < 2:
        raise AnalysisError(f"node_count must be at least 2, got {node_count}")
    if side <= 0:
        raise AnalysisError(f"side must be positive, got {side}")
    return side * math.sqrt((math.log(node_count) + constant) / (math.pi * node_count))
