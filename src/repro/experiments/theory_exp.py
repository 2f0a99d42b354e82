"""Theory experiments for Section 3 (Theorems 1–5).

Two registered experiments:

* ``theorem5-1d`` — for a sweep of line lengths ``l`` (with ``n``
  proportional to ``l``), measure by simulation the empirical critical
  product ``r * n`` at which 99 % of random 1-D placements are connected
  and compare it with the ``l log l`` threshold of Theorem 5, the exact
  closed-form predictor, and the weaker isolated-node bound.
* ``occupancy-domains`` — exact vs asymptotic (Theorem 1) moments of the
  number of empty cells across the five growth domains, plus Monte-Carlo
  estimates, validating the occupancy machinery that the Theorem 4 proof
  relies on.

Random streams
--------------
Both experiments originally walked *one* sequential ``default_rng`` across
their parameter values, which made every value's numbers depend on every
value measured before it — so the sweeps could only be cached whole and
could never be decomposed, checkpointed per value, or scheduled
concurrently.  Each value now draws from its own child stream
(:func:`repro.stats.rng.value_rng`, keyed by the seed, the experiment
label and the value's bit pattern), making the measures order-invariant,
picklable and value-checkpointable.  This deliberately shifts the
simulated numbers relative to the shared-stream implementation; the new
streams are pinned by regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.bounds_1d import (
    connectivity_probability_1d_exact,
    critical_product_1d,
    range_for_connectivity_probability_1d,
)
from repro.analysis.disconnection import (
    gap_event_probability_estimate,
    isolated_node_probability_1d,
)
from repro.experiments.registry import (
    Experiment,
    ExperimentScale,
    register_experiment,
)
from repro.occupancy.asymptotic import (
    asymptotic_empty_cells_mean,
    asymptotic_empty_cells_variance,
)
from repro.occupancy.cells import simulate_empty_cells
from repro.occupancy.domains import classify_domain
from repro.occupancy.exact import empty_cells_mean, empty_cells_variance
from repro.stats.rng import value_rng
from repro.store.keys import scale_payload


#: Node density used by the 1-D experiment: n = DENSITY_FACTOR * l.
DENSITY_FACTOR = 0.25

#: The five occupancy growth domains swept by ``occupancy-domains``.
GROWTH_DOMAIN_COUNT = 5


def occupancy_domain_values(scale: ExperimentScale):
    """The ``domain`` sweep visits one fixed index per growth domain —
    not the system sides the registry's default would report."""
    return tuple(float(index) for index in range(GROWTH_DOMAIN_COUNT))


def occupancy_cell_count(scale: ExperimentScale) -> int:
    """Cells per row of the occupancy experiment (smoke runs shrink it)."""
    return 64 if scale.name == "smoke" else 256


@dataclass(frozen=True)
class Theorem5Measure:
    """Picklable per-value measure of the 1-D critical-product sweep.

    The empirical critical range of a 1-D placement is its longest
    consecutive gap, computed directly in ``O(n log n)`` per placement so
    that the densest settings (thousands of nodes) stay affordable.  Each
    side draws from its own :func:`~repro.stats.rng.value_rng` child
    stream, so the row at one side is independent of every other side.
    """

    scale: ExperimentScale

    def __call__(self, side: float) -> Dict[str, float]:
        from repro.connectivity.critical_range import longest_gap_1d

        rng = value_rng(self.scale.seed, side, label="theorem5-1d")
        node_count = max(4, int(round(DENSITY_FACTOR * side)))
        samples = []
        for _ in range(self.scale.stationary_iterations):
            placement = rng.uniform(0.0, side, size=(node_count, 1))
            samples.append(longest_gap_1d(placement))
        samples.sort()
        index = max(0, int(math.ceil(0.99 * len(samples))) - 1)
        empirical_r = samples[index]
        exact_r = range_for_connectivity_probability_1d(node_count, side, 0.99)
        threshold_product = critical_product_1d(side)
        return {
            "n": float(node_count),
            "empirical_r99": empirical_r,
            "exact_r99": exact_r,
            "empirical_rn": empirical_r * node_count,
            "exact_rn": exact_r * node_count,
            "l_log_l": threshold_product,
            "empirical_rn/l_log_l": (
                empirical_r * node_count / threshold_product
                if threshold_product > 0
                else float("nan")
            ),
            "p_connected_at_threshold": connectivity_probability_1d_exact(
                node_count, side, threshold_product / node_count
            ),
            "p_isolated_at_threshold": isolated_node_probability_1d(
                node_count, side, threshold_product / node_count
            ),
        }


@dataclass(frozen=True)
class OccupancyDomainMeasure:
    """Picklable per-value measure of the occupancy-domains sweep.

    The number of cells is fixed per row and the ball count is chosen to
    land in each of the five growth domains in turn.  Each domain's
    Monte-Carlo estimate draws from its own child stream.
    """

    scale: ExperimentScale

    def __call__(self, index: float) -> Dict[str, float]:
        cells = occupancy_cell_count(self.scale)
        ball_counts = {
            "LHD": max(2, int(round(math.sqrt(cells)))),
            "LHID": max(3, int(round(cells ** 0.75))),
            "CD": cells,
            "RHID": int(round(cells * math.sqrt(math.log(cells)))),
            "RHD": int(round(cells * math.log(cells))),
        }
        iterations = max(200, self.scale.stationary_iterations)
        rng = value_rng(self.scale.seed, index, label="occupancy-domains")
        label, n = list(ball_counts.items())[int(index)]
        samples = simulate_empty_cells(n, cells, iterations, rng)
        domain = classify_domain(n, cells)
        return {
            "n": float(n),
            "C": float(cells),
            "domain_index": float(list(ball_counts).index(label)),
            "exact_mean": empty_cells_mean(n, cells),
            "asymptotic_mean": asymptotic_empty_cells_mean(n, cells),
            "simulated_mean": float(np.mean(samples)),
            "exact_variance": empty_cells_variance(n, cells),
            "asymptotic_variance": asymptotic_empty_cells_variance(n, cells),
            "simulated_variance": float(np.var(samples, ddof=1)),
            "gap_probability": gap_event_probability_estimate(n, cells),
            "is_rhd": 1.0 if domain.value == "RHD" else 0.0,
        }


def _theorem5_measure(scale: ExperimentScale) -> Theorem5Measure:
    return Theorem5Measure(scale=scale)


def _occupancy_measure(scale: ExperimentScale) -> OccupancyDomainMeasure:
    return OccupancyDomainMeasure(scale=scale)


#: Tag of the random-stream scheme baked into the theory payloads: the
#: per-value streams deliberately changed the simulated numbers, so the
#: tag invalidates any store entry written by the old shared-stream
#: implementation (whose keys carried no payload tag) instead of letting
#: a warm store serve stale rows that no longer match a cold run.
_RNG_SCHEME = "per-value-streams"


def theorem5_payload(scale: ExperimentScale) -> Dict:
    """Content-address payload of the theorem5-1d sweep."""
    return {
        "computation": "theorem5-1d",
        "rng": _RNG_SCHEME,
        "scale": scale_payload(scale),
    }


def occupancy_payload(scale: ExperimentScale) -> Dict:
    """Content-address payload of the occupancy-domains sweep.

    The cell count is part of the payload explicitly: it is derived from
    ``scale.name`` (smoke runs shrink it), which :func:`scale_payload`
    deliberately drops — without it, two scales differing only in name
    would collide on a key while simulating different cell grids.
    """
    return {
        "computation": "occupancy-domains",
        "cells": occupancy_cell_count(scale),
        "rng": _RNG_SCHEME,
        "scale": scale_payload(scale),
    }


register_experiment(Experiment(
    identifier="theorem5-1d",
    title="Critical product r*n vs l log l in one dimension",
    description=(
        "Empirical (simulated) and exact critical transmitting ranges of "
        "1-D uniform placements with n proportional to l, compared against "
        "the Theorem 5 threshold product l log l."
    ),
    paper_reference="Theorems 3-5",
    cache_payload=theorem5_payload,
    sweep_measure=_theorem5_measure,
))

register_experiment(Experiment(
    identifier="occupancy-domains",
    title="Occupancy moments across growth domains",
    description=(
        "Exact, asymptotic (Theorem 1) and Monte-Carlo moments of the "
        "number of empty cells mu(n, C) in each of the five growth domains, "
        "plus the occupancy-based estimate of the {10*1} gap event."
    ),
    paper_reference="Theorems 1-2, Lemma 1",
    sweep_values=occupancy_domain_values,
    cache_payload=occupancy_payload,
    parameter_name="domain",
    sweep_measure=_occupancy_measure,
))
