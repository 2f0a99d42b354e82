"""Reproduction of *An Evaluation of Connectivity in Mobile Wireless Ad Hoc
Networks* (Santi & Blough, DSN 2002).

The library answers the paper's two questions:

1. **Stationary networks** (Section 3) — how large must the common
   transmitting range ``r`` be so that ``n`` uniformly placed nodes in
   ``[0, l]^d`` form a connected communication graph?  For ``d = 1`` the
   answer is ``r n = Theta(l log l)`` (Theorem 5): :mod:`repro.analysis`
   holds the threshold, the exact finite-``n`` connectivity probability
   and the gap-event estimates the ``theorem5-1d`` experiment compares
   with simulation, on top of the occupancy theory in
   :mod:`repro.occupancy` that the ``occupancy-domains`` experiment checks.
2. **Mobile networks** (Section 4) — how much larger must ``r`` be to keep
   the network connected during a fraction of the operational time while
   nodes move?  Answered by simulation: mobility models in
   :mod:`repro.mobility`, the engine in :mod:`repro.simulation`, and the
   figure reproductions in :mod:`repro.experiments`.

Quickstart::

    import repro

    # Stationary: exact critical range of a random placement.
    region = repro.Region.square(1000.0)
    points = repro.uniform_placement(64, region, repro.make_rng(7))
    r_star = repro.critical_range(points)

    # Mobile: the Figure 2 thresholds at a reduced scale.
    config = repro.SimulationConfig.paper_waypoint(
        side=1024.0, steps=100, iterations=3, seed=7
    )
    thresholds = repro.estimate_thresholds(config)
    print(thresholds.r100, thresholds.r90, thresholds.r10, thresholds.r0)
"""

from repro.analysis.bounds_1d import (
    connectivity_probability_1d_exact,
    critical_product_1d,
    nodes_for_connectivity_1d,
)
from repro.connectivity import (
    critical_range,
    is_placement_connected,
    observe_placement,
)
from repro.energy import EnergyModel, energy_savings_fraction, savings_table
from repro.exceptions import (
    AnalysisError,
    ConfigurationError,
    ReproError,
    SearchError,
    SimulationError,
)
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments import get_experiment, list_experiments
from repro.geometry import Region
from repro.graph import (
    CommunicationGraph,
    build_communication_graph,
    connected_components,
    is_connected,
)
from repro.mobility import DrunkardModel, RandomWaypointModel, StationaryModel
from repro.occupancy import (
    classify_domain,
    empty_cells_mean,
    empty_cells_pmf,
    empty_cells_variance,
    has_gap_pattern,
)
from repro.placement import (
    corner_clusters_placement,
    grid_placement,
    uniform_placement,
)
from repro.simulation import (
    ComponentThresholds,
    MobilitySpec,
    MobilityThresholds,
    NetworkConfig,
    SimulationConfig,
    collect_frame_statistics,
    estimate_component_thresholds,
    estimate_thresholds,
    stationary_critical_range,
)
from repro.stats import make_rng
from repro.store import ResultStore

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "CampaignRunner",
    "CampaignSpec",
    "CommunicationGraph",
    "ComponentThresholds",
    "ConfigurationError",
    "DrunkardModel",
    "EnergyModel",
    "MobilitySpec",
    "MobilityThresholds",
    "NetworkConfig",
    "RandomWaypointModel",
    "Region",
    "ReproError",
    "ResultStore",
    "SearchError",
    "SimulationConfig",
    "SimulationError",
    "StationaryModel",
    "__version__",
    "build_communication_graph",
    "classify_domain",
    "collect_frame_statistics",
    "connected_components",
    "connectivity_probability_1d_exact",
    "corner_clusters_placement",
    "critical_product_1d",
    "critical_range",
    "empty_cells_mean",
    "empty_cells_pmf",
    "empty_cells_variance",
    "energy_savings_fraction",
    "estimate_component_thresholds",
    "estimate_thresholds",
    "get_experiment",
    "grid_placement",
    "has_gap_pattern",
    "is_connected",
    "is_placement_connected",
    "list_experiments",
    "make_rng",
    "nodes_for_connectivity_1d",
    "observe_placement",
    "savings_table",
    "stationary_critical_range",
    "uniform_placement",
]
