"""Node placement strategies.

The paper's probabilistic analysis assumes nodes are placed independently
and uniformly at random (Section 2).  Its discussion of Theorem 5 also
compares against the best case (equally spaced nodes) and the worst case
(nodes clustered at opposite corners), both of which are implemented here so
the theory benchmarks can reproduce that comparison.
"""

from repro.placement.strategies import (
    corner_clusters_placement,
    grid_placement,
    uniform_placement,
)

__all__ = [
    "corner_clusters_placement",
    "grid_placement",
    "uniform_placement",
]
