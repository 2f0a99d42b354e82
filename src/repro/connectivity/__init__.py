"""Connectivity of placements.

This package sits between the graph substrate and the simulation engine:
given a placement and a transmitting range it answers the questions the
paper's evaluation revolves around — is the network connected, how big is
the largest connected component, and what is the *exact* critical
transmitting range of a given placement.
"""

from repro.connectivity.critical_range import critical_range, longest_gap_1d
from repro.connectivity.metrics import (
    ConnectivityObservation,
    is_placement_connected,
    observe_placement,
)

__all__ = [
    "ConnectivityObservation",
    "critical_range",
    "is_placement_connected",
    "longest_gap_1d",
    "observe_placement",
]
