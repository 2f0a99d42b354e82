#!/usr/bin/env python
"""Quickstart: the library in five minutes.

This example walks through the paper's two questions on a small network:

1. *Stationary*: how large must the transmitting range be so that a random
   placement of ``n`` nodes in a square region is connected?
2. *Mobile*: how much larger must the range be to stay connected while the
   nodes move, and how much range (and therefore energy) can be saved by
   tolerating brief disconnections?

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.experiments.report import ascii_chart, format_table


def stationary_demo() -> float:
    """Critical range of one random placement plus the Monte-Carlo rstationary."""
    print("=" * 72)
    print("1. Stationary network: minimum transmitting range (MTR)")
    print("=" * 72)

    side = 1000.0
    node_count = 50
    region = repro.Region.square(side)
    rng = repro.make_rng(42)

    placement = repro.uniform_placement(node_count, region, rng)
    exact = repro.critical_range(placement)
    print(f"\n{node_count} nodes uniform in [0, {side:.0f}]^2")
    print(f"Exact critical range of this placement (longest MST edge): {exact:.1f}")

    graph = repro.build_communication_graph(placement, exact)
    print(f"Graph at that range: {graph.edge_count} edges, connected = "
          f"{repro.is_connected(graph)}")

    rstationary = repro.stationary_critical_range(
        node_count, side, dimension=2, iterations=300, seed=7, confidence=0.99
    )
    print(f"\nMonte-Carlo rstationary (99% of placements connected): {rstationary:.1f}")
    print("Analytical comparators:")
    from repro.analysis.gupta_kumar import gupta_kumar_critical_range
    from repro.analysis.worst_best_case import best_case_range_2d, worst_case_range

    rows = [
        {"placement": "best case (lattice)", "range": best_case_range_2d(node_count, side)},
        {"placement": "random (simulated)", "range": rstationary},
        {"placement": "Gupta-Kumar threshold", "range": gupta_kumar_critical_range(node_count, side)},
        {"placement": "worst case (corners)", "range": worst_case_range(side, 2)},
    ]
    print(format_table(rows, precision=4))
    return rstationary


def mobile_demo(rstationary: float) -> None:
    """Thresholds of the mobile problem (MTRM) and the energy trade-off."""
    print()
    print("=" * 72)
    print("2. Mobile network: range thresholds and the energy trade-off")
    print("=" * 72)

    side = 1000.0
    # Iterations run serially; to use several cores, run several parameter
    # values at once (``repro run <figure> --total-workers N``).
    config = repro.SimulationConfig(
        network=repro.NetworkConfig(node_count=50, side=side, dimension=2),
        mobility=repro.MobilitySpec.paper_waypoint(side),
        steps=300,
        iterations=3,
        seed=11,
    )
    statistics = repro.collect_frame_statistics(config)

    from repro.simulation.search import (
        estimate_component_thresholds_from_statistics,
        estimate_thresholds_from_statistics,
    )

    thresholds = estimate_thresholds_from_statistics(statistics)
    components = estimate_component_thresholds_from_statistics(statistics)

    print("\nTransmitting-range thresholds (random waypoint, 300 steps x 3 runs):")
    labels = ["r100", "r90", "r10", "r0", "rl90", "rl75", "rl50"]
    values = [
        thresholds.r100, thresholds.r90, thresholds.r10, thresholds.r0,
        components.rl90, components.rl75, components.rl50,
    ]
    print(ascii_chart(values, labels=labels, width=44))
    print(f"\n(rstationary for the same geometry: {rstationary:.1f})")

    print("\nEnergy savings relative to r100 (transmit power ~ r^alpha):")
    ratios = {
        "r90": thresholds.r90 / thresholds.r100,
        "r10": thresholds.r10 / thresholds.r100,
        "rl50": components.rl50 / thresholds.r100,
    }
    free_space = repro.savings_table(ratios, repro.EnergyModel(path_loss_exponent=2.0))
    two_ray = repro.savings_table(ratios, repro.EnergyModel(path_loss_exponent=4.0))
    rows = [
        {
            "threshold": label,
            "range/r100": ratio,
            "savings (alpha=2)": free_space[label],
            "savings (alpha=4)": two_ray[label],
        }
        for label, ratio in ratios.items()
    ]
    print(format_table(rows, precision=3))

    from repro.simulation import FrameStatisticsColumns

    pooled = FrameStatisticsColumns.concatenate(statistics)
    connected = pooled.connected_at(thresholds.r90).mean()
    print(f"\nAt r90 the network is connected in {connected:.1%} of steps")


def main() -> None:
    rstationary = stationary_demo()
    mobile_demo(rstationary)
    print("\nDone.  See examples/freeway_1d.py and examples/sensor_energy_tradeoff.py")
    print("for the 1-D theory and the full energy study, and `python -m repro list`")
    print("for the figure-by-figure reproductions.")


if __name__ == "__main__":
    main()
