#!/usr/bin/env python
"""Sensor-network energy study: how much battery does relaxed connectivity buy?

Section 4 of the paper argues that a sensor network used for environmental
monitoring does not need permanent, full connectivity: tolerating brief
disconnections (operating at r90 or r10 instead of r100) or keeping only a
fraction of the nodes connected (rl90 / rl75 / rl50) saves a large share of
the transmission energy, because transmit power grows like ``r ** alpha``.

This example reproduces that argument end to end on a mid-sized network:

1. estimate all the thresholds of Figures 2-6 for one system size,
2. convert them into energy savings and battery-lifetime multipliers,
3. report what the network still delivers at each threshold: the share of
   time it is connected and the size of its largest component.

Run with::

    python examples/sensor_energy_tradeoff.py
"""

from __future__ import annotations

import repro
from repro.energy.savings import equivalent_lifetime_factor
from repro.experiments.report import format_table
from repro.simulation import FrameStatisticsColumns
from repro.simulation.search import (
    average_component_fraction_at_range,
    estimate_component_thresholds_from_statistics,
    estimate_thresholds_from_statistics,
)

SIDE = 2048.0
NODE_COUNT = 45
STEPS = 250
ITERATIONS = 3
SEED = 23


def main() -> None:
    print("Sensor field:", f"{NODE_COUNT} nodes in [0, {SIDE:.0f}]^2,",
          f"{STEPS} mobility steps x {ITERATIONS} runs (random waypoint)")

    config = repro.SimulationConfig(
        network=repro.NetworkConfig(node_count=NODE_COUNT, side=SIDE, dimension=2),
        mobility=repro.MobilitySpec.paper_waypoint(SIDE),
        steps=STEPS,
        iterations=ITERATIONS,
        seed=SEED,
    )
    statistics = repro.collect_frame_statistics(config)
    pooled = FrameStatisticsColumns.concatenate(statistics)

    thresholds = estimate_thresholds_from_statistics(statistics)
    components = estimate_component_thresholds_from_statistics(statistics)
    rstationary = repro.stationary_critical_range(
        NODE_COUNT, SIDE, dimension=2, iterations=300, seed=SEED, confidence=0.99
    )

    named_ranges = {
        "r100 (always connected)": thresholds.r100,
        "r90 (connected 90% of time)": thresholds.r90,
        "r10 (connected 10% of time)": thresholds.r10,
        "rl90 (90% of nodes in one component)": components.rl90,
        "rl75 (75% of nodes in one component)": components.rl75,
        "rl50 (half the nodes in one component)": components.rl50,
    }

    free_space = repro.EnergyModel(path_loss_exponent=2.0)
    two_ray = repro.EnergyModel(path_loss_exponent=4.0)

    rows = []
    for label, radius in named_ranges.items():
        rows.append(
            {
                "operating point": label,
                "range": radius,
                "range/rstationary": radius / rstationary,
                "energy saved vs r100 (a=2)": repro.energy_savings_fraction(
                    radius, thresholds.r100, free_space
                ),
                "energy saved vs r100 (a=4)": repro.energy_savings_fraction(
                    radius, thresholds.r100, two_ray
                ),
                "lifetime x (a=2)": equivalent_lifetime_factor(
                    radius, thresholds.r100, free_space
                ),
                "fully connected time": pooled.connected_at(radius).mean(),
                "avg largest component": average_component_fraction_at_range(
                    statistics, radius
                ),
            }
        )

    print()
    print(format_table(
        rows,
        columns=[
            "operating point", "range", "range/rstationary",
            "energy saved vs r100 (a=2)", "energy saved vs r100 (a=4)",
            "lifetime x (a=2)", "fully connected time", "avg largest component",
        ],
        precision=3,
    ))

    print()
    print("Reading the table:")
    print(" * dropping from r100 to r90 keeps the network connected ~90% of the")
    print("   time and still keeps almost every node in one component, while")
    print("   cutting transmission energy substantially;")
    print(" * at r10 the network is disconnected most of the time, but a large")
    print("   connected component persists - enough for delay-tolerant data")
    print("   collection - at a fraction of the energy;")
    print(" * the rl-thresholds show the same trade-off when the requirement is")
    print("   'keep a fraction of the nodes connected' rather than 'be connected")
    print("   some fraction of the time'.")


if __name__ == "__main__":
    main()
