#!/usr/bin/env python
"""Does the mobility model matter?  Reproducing the paper's comparison.

The paper's "somewhat surprising" finding is that the random waypoint model
(intentional motion) and the drunkard model (random motion) give almost the
same connectivity statistics: what matters is the *quantity* of mobility
(how many nodes are stationary), not its precise pattern.

This example compares the paper's two mobility models on identical
networks, and then sweeps ``pstationary`` to reproduce the Figure 7
threshold phenomenon (with about half the nodes stationary, the network
behaves as if it were fully stationary).

Run with::

    python examples/mobility_comparison.py
"""

from __future__ import annotations

import repro
from repro.experiments.report import ascii_chart, format_table
from repro.simulation.search import estimate_thresholds_from_statistics

SIDE = 1024.0
NODE_COUNT = 32
STEPS = 200
ITERATIONS = 3
SEED = 5


def model_specs():
    """The paper's two mobility models with their Section 4.2 parameters."""
    return {
        "random waypoint": repro.MobilitySpec.paper_waypoint(SIDE),
        "drunkard": repro.MobilitySpec.paper_drunkard(SIDE),
    }


def compare_models() -> None:
    print("=" * 72)
    print("Connectivity thresholds under the paper's two mobility models")
    print("=" * 72)
    rstationary = repro.stationary_critical_range(
        NODE_COUNT, SIDE, dimension=2, iterations=300, seed=SEED, confidence=0.99
    )

    rows = []
    for label, spec in model_specs().items():
        config = repro.SimulationConfig(
            network=repro.NetworkConfig(node_count=NODE_COUNT, side=SIDE, dimension=2),
            mobility=spec,
            steps=STEPS,
            iterations=ITERATIONS,
            seed=SEED,
        )
        statistics = repro.collect_frame_statistics(config)
        thresholds = estimate_thresholds_from_statistics(statistics)
        rows.append(
            {
                "model": label,
                "r100/rstat": thresholds.r100 / rstationary,
                "r90/rstat": thresholds.r90 / rstationary,
                "r10/rstat": thresholds.r10 / rstationary,
                "r0/rstat": thresholds.r0 / rstationary,
            }
        )
    print()
    print(format_table(rows, precision=3))
    print("\nThe two rows are close: as the paper concludes, the existence of")
    print("mobility matters far more than the precise movement pattern.")


def stationary_fraction_sweep() -> None:
    print()
    print("=" * 72)
    print("Figure 7 phenomenon: the fraction of stationary nodes")
    print("=" * 72)
    rstationary = repro.stationary_critical_range(
        NODE_COUNT, SIDE, dimension=2, iterations=300, seed=SEED, confidence=0.99
    )

    fractions = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    ratios = []
    for pstationary in fractions:
        config = repro.SimulationConfig(
            network=repro.NetworkConfig(node_count=NODE_COUNT, side=SIDE, dimension=2),
            mobility=repro.MobilitySpec.paper_waypoint(SIDE, pstationary=pstationary),
            steps=120,
            iterations=ITERATIONS,
            seed=SEED,
        )
        statistics = repro.collect_frame_statistics(config)
        thresholds = estimate_thresholds_from_statistics(statistics)
        ratios.append(thresholds.r100 / rstationary)

    print("\nr100 / rstationary as the stationary fraction grows:")
    print(ascii_chart(ratios, labels=[f"p={p:.1f}" for p in fractions], width=40))
    print("\nThe ratio drops as more nodes stay put; beyond roughly half the")
    print("nodes stationary the network needs no more range than a fully")
    print("stationary one - the threshold the paper highlights in Figure 7.")


def main() -> None:
    compare_models()
    stationary_fraction_sweep()


if __name__ == "__main__":
    main()
