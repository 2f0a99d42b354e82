"""Tests of the top-level public API (`import repro`)."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent

#: Modules deleted with the array-backend seam, the extension packages,
#: the graph toolkit and the Section 3 theory nothing reached; their names
#: must not come back as stale shims.
REMOVED_MODULES = [
    "repro.analysis.bounds_2d",
    "repro.analysis.mtr",
    "repro.availability",
    "repro.backend",
    "repro.connectivity.path",
    "repro.dissemination",
    "repro.distributed.object_cache",
    "repro.geometry.kdtree",
    "repro.geometry.spatial_index",
    "repro.graph.convert",
    "repro.graph.properties",
    "repro.graph.traversal",
    "repro.mobility.boundary",
    "repro.mobility.gauss_markov",
    "repro.mobility.group",
    "repro.mobility.random_direction",
    "repro.mobility.trace",
    "repro.occupancy.limits",
    "repro.propagation",
    "repro.stats.distributions",
    "repro.stats.series",
    "repro.stats.summary",
    "repro.topology",
    "repro.visualization",
]


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists {name} but it is missing"

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_key_entry_points_are_callable_or_classes(self):
        for name in (
            "critical_range",
            "build_communication_graph",
            "estimate_thresholds",
            "stationary_critical_range",
            "uniform_placement",
        ):
            assert callable(getattr(repro, name))
        for name in ("Region", "SimulationConfig", "RandomWaypointModel", "EnergyModel"):
            assert inspect.isclass(getattr(repro, name))

    def test_exceptions_form_a_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.SearchError, repro.ReproError)
        assert issubclass(repro.AnalysisError, repro.ReproError)

    def test_quickstart_docstring_flow(self):
        """The flow shown in the package docstring works as written."""
        region = repro.Region.square(200.0)
        points = repro.uniform_placement(20, region, repro.make_rng(7))
        r_star = repro.critical_range(points)
        assert r_star > 0.0
        config = repro.SimulationConfig.paper_waypoint(
            side=200.0, steps=10, iterations=2, seed=7
        )
        thresholds = repro.estimate_thresholds(config)
        assert thresholds.r0 <= thresholds.r100

    def test_every_public_object_has_a_docstring(self):
        missing = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"public objects without docstrings: {missing}"

    def test_experiment_registry_reachable_from_top_level(self):
        identifiers = {e.identifier for e in repro.list_experiments()}
        assert {"fig2", "fig9", "theorem5-1d"} <= identifiers
        assert repro.get_experiment("fig2").paper_reference == "Figure 2"


#: Names deleted with the fixed-range simulator and the list-of-frames
#: metric paths: every fixed-range answer is a query on
#: ``FrameStatisticsColumns``.  ``(module, name)`` pairs.
REMOVED_NAMES = [
    ("repro", "run_fixed_range"),
    ("repro.simulation", "IterationResult"),
    ("repro.simulation", "MobileRunResult"),
    ("repro.simulation", "StepColumns"),
    ("repro.simulation", "StepRecord"),
    ("repro.simulation", "connectivity_fraction_at"),
    ("repro.simulation", "largest_component_size_at"),
    ("repro.simulation", "minimum_largest_fraction_at"),
    ("repro.simulation", "pool_frame_statistics"),
    ("repro.simulation", "run_fixed_range"),
    ("repro.simulation", "simulate_iteration"),
    ("repro.simulation.engine", "simulate_iteration"),
    ("repro.simulation.results", "IterationResult"),
    ("repro.simulation.results", "MobileRunResult"),
    ("repro.simulation.results", "StepColumns"),
    ("repro.simulation.results", "StepRecord"),
    ("repro.simulation.results", "pool_frame_statistics"),
    ("repro.simulation.runner", "run_fixed_range"),
    ("repro.simulation.search", "r100_for_parameter"),
    ("repro.campaigns.runner", "run_campaign"),
]

#: Names deleted with the graph toolkit nothing reached: every
#: connectivity answer is a query on the spanning-tree columns, and the
#: point graph stays only as their brute-force reference.
REMOVED_TOOLKIT_NAMES = [
    ("repro", "GridIndex"),
    ("repro", "MobilityTrace"),
    ("repro", "largest_component_fraction"),
    ("repro", "largest_component_fraction_of_placement"),
    ("repro", "record_trace"),
    ("repro.connectivity", "average_hop_count"),
    ("repro.connectivity", "connectivity_fraction_over_trace"),
    ("repro.connectivity", "largest_component_fraction_of_placement"),
    ("repro.connectivity", "network_diameter_hops"),
    ("repro.connectivity", "observe_trace"),
    ("repro.connectivity", "range_for_k_connectivity"),
    ("repro.connectivity", "reachability_fraction"),
    ("repro.connectivity.critical_range", "range_for_k_connectivity"),
    ("repro.connectivity.critical_range", "sorted_edge_lengths"),
    ("repro.geometry", "GridIndex"),
    ("repro.graph", "articulation_points"),
    ("repro.graph", "bfs_order"),
    ("repro.graph", "bfs_tree"),
    ("repro.graph", "degree_sequence"),
    ("repro.graph", "degree_statistics"),
    ("repro.graph", "has_isolated_node"),
    ("repro.graph", "hop_counts"),
    ("repro.graph", "is_k_connected"),
    ("repro.graph", "isolated_nodes"),
    ("repro.graph", "largest_component_fraction"),
    ("repro.graph", "largest_component_size"),
    ("repro.graph", "minimum_degree"),
    ("repro.graph", "shortest_hop_path"),
    ("repro.graph.builder", "BRUTE_FORCE_THRESHOLD"),
    ("repro.graph.builder", "adjacency_from_pairs"),
    ("repro.mobility", "MobilityTrace"),
    ("repro.mobility", "record_trace"),
    ("repro.query.http", "serve_queries"),
]


@pytest.mark.parametrize("name", REMOVED_MODULES)
def test_removed_modules_are_gone(name):
    assert importlib.util.find_spec(name) is None


#: Names deleted with the sweep pool: value tasks run in the campaign
#: scheduler's pool or the work queue, and ``Experiment.run`` measures
#: values in-process.  A scale has no execution field left to filter.
REMOVED_EXECUTOR_NAMES = [
    ("repro.simulation", "sweep_parameter"),
    ("repro.simulation.sweep", "sweep_parameter"),
    ("repro.store.keys", "EXECUTION_FIELDS"),
]


#: Names deleted with the mobility extension models and the knobs and
#: helpers nothing set or called: the paper's two models, uniform
#: placement, one stream-derivation scheme, counters and histograms.
REMOVED_EXTENSION_NAMES = [
    ("repro", "GaussMarkovModel"),
    ("repro", "RandomDirectionModel"),
    ("repro", "clustered_placement"),
    ("repro.mobility", "BoundaryPolicy"),
    ("repro.mobility", "GaussMarkovModel"),
    ("repro.mobility", "RandomDirectionModel"),
    ("repro.mobility", "ReferencePointGroupModel"),
    ("repro.placement", "PlacementStrategy"),
    ("repro.placement", "clustered_placement"),
    ("repro.placement", "perturbed_grid_placement"),
    ("repro.placement.strategies", "placement_by_name"),
    ("repro.stats", "spawn_rngs"),
    ("repro.telemetry.metrics", "Gauge"),
    ("repro.telemetry.metrics", "gauge"),
]


#: Names deleted with the Section 3 theory, the toroidal metric and the
#: statistics helpers that no experiment, example or benchmark reached.
REMOVED_THEORY_NAMES = [
    ("repro", "MTRInstance"),
    ("repro", "MTRMInstance"),
    ("repro", "critical_range_for_component_fraction"),
    ("repro", "range_for_connectivity_1d"),
    ("repro.analysis", "MTRInstance"),
    ("repro.analysis", "MTRMInstance"),
    ("repro.analysis", "best_case_range_1d"),
    ("repro.analysis", "disconnection_probability_estimate_1d"),
    ("repro.analysis", "range_for_connectivity_1d"),
    ("repro.analysis", "range_lower_bound_1d"),
    ("repro.analysis", "range_upper_bound_1d"),
    ("repro.analysis.bounds_1d", "range_for_connectivity_1d"),
    ("repro.analysis.bounds_1d", "range_lower_bound_1d"),
    ("repro.analysis.bounds_1d", "range_upper_bound_1d"),
    ("repro.analysis.disconnection", "disconnection_probability_estimate_1d"),
    ("repro.analysis.disconnection", "gap_event_probability_at_mean"),
    ("repro.analysis.gupta_kumar", "gupta_kumar_node_count"),
    ("repro.analysis.worst_best_case", "best_case_range_1d"),
    ("repro.analysis.worst_best_case", "random_placement_range_order_1d"),
    ("repro.connectivity", "critical_range_for_component_fraction"),
    ("repro.connectivity.critical_range", "critical_range_for_component_fraction"),
    ("repro.connectivity.critical_range", "critical_range_toroidal"),
    ("repro.connectivity.critical_range", "minimum_spanning_edges_from_squared"),
    ("repro.energy", "network_energy"),
    ("repro.energy", "range_reduction_for_savings"),
    ("repro.energy.savings", "network_energy"),
    ("repro.energy.savings", "range_reduction_for_savings"),
    ("repro.geometry", "pairwise_distances"),
    ("repro.geometry", "toroidal_distance"),
    ("repro.geometry", "toroidal_distance_matrix"),
    ("repro.geometry.distance", "euclidean_distance"),
    ("repro.geometry.distance", "nearest_neighbor_distances"),
    ("repro.geometry.distance", "pairwise_distances"),
    ("repro.geometry.distance", "toroidal_distance"),
    ("repro.geometry.distance", "toroidal_distance_matrix"),
    ("repro.geometry.distance", "toroidal_squared_distance_matrix"),
    ("repro.occupancy", "LimitLaw"),
    ("repro.occupancy", "empty_cell_count"),
    ("repro.occupancy", "empty_cells_distribution"),
    ("repro.occupancy", "empty_cells_mean_upper_bound"),
    ("repro.occupancy", "limit_law"),
    ("repro.occupancy", "occupancy_bitstring"),
    ("repro.occupancy", "rhd_poisson_rate"),
    ("repro.occupancy.asymptotic", "empty_cells_mean_upper_bound"),
    ("repro.occupancy.asymptotic", "expected_empty_cells_for_range"),
    ("repro.occupancy.cells", "empty_cell_count"),
    ("repro.occupancy.cells", "gap_widths"),
    ("repro.occupancy.cells", "occupancy_bitstring"),
    ("repro.occupancy.domains", "domain_for_line_network"),
    ("repro.occupancy.exact", "empty_cells_distribution"),
    ("repro.simulation", "range_for_component_fraction"),
    ("repro.simulation.metrics", "range_for_component_fraction"),
    ("repro.stats", "SummaryStatistics"),
    ("repro.stats", "confidence_interval"),
    ("repro.stats", "normal_cdf"),
    ("repro.stats", "normal_pdf"),
    ("repro.stats", "poisson_cdf"),
    ("repro.stats", "poisson_pmf"),
    ("repro.stats", "summarize"),
]


REMOVED = (
    REMOVED_NAMES
    + REMOVED_EXECUTOR_NAMES
    + REMOVED_EXTENSION_NAMES
    + REMOVED_THEORY_NAMES
)


@pytest.mark.parametrize(
    "module, name", REMOVED, ids=[".".join(pair) for pair in REMOVED]
)
def test_removed_names_are_gone(module, name):
    owner = importlib.import_module(module)
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_removed_toolkit_names_are_gone():
    present = [
        f"{module}.{name}"
        for module, name in REMOVED_TOOLKIT_NAMES
        if hasattr(importlib.import_module(module), name)
        or name in getattr(importlib.import_module(module), "__all__", ())
    ]
    assert present == []


def test_removed_methods_are_gone():
    from repro.faults import FaultPlan
    from repro.store.result_store import ResultStore

    assert not hasattr(ResultStore, "clear_quarantine")
    assert not hasattr(FaultPlan, "to_document")


@pytest.mark.parametrize(
    "owner, name",
    [
        ("repro.mobility.waypoint.RandomWaypointModel", "paper_defaults"),
        ("repro.mobility.waypoint.RandomWaypointModel", "steps_until_next_arrival"),
        ("repro.mobility.drunkard.DrunkardModel", "paper_defaults"),
        ("repro.geometry.region.Region", "sample_point"),
        ("repro.geometry.region.Region", "wrap"),
        ("repro.simulation.config.NetworkConfig", "placement_strategy"),
        ("repro.energy.model.EnergyModel", "power_ratio"),
        ("repro.geometry.region.Region", "diagonal"),
        ("repro.graph.union_find.UnionFind", "from_edges"),
        ("repro.graph.union_find.UnionFind", "largest_set_size"),
        ("repro.simulation.search.ComponentThresholds", "ratios_to"),
        ("repro.simulation.search.MobilityThresholds", "ratios_to"),
    ],
)
def test_removed_extension_methods_are_gone(owner, name):
    """The Section 4.2 parameters live in the ``MobilitySpec`` presets only,
    and no method is left that only the extension models, or only tests,
    called."""
    module, _, cls = owner.rpartition(".")
    assert not hasattr(getattr(importlib.import_module(module), cls), name)


def test_stationary_range_draws_uniform_placements_only():
    from repro.simulation.runner import stationary_critical_range

    assert "placement" not in inspect.signature(stationary_critical_range).parameters


def test_the_point_graph_surface():
    """The point graph is the components reference and nothing more."""
    from repro.graph.adjacency import CommunicationGraph
    from repro.graph.builder import build_communication_graph, neighbor_pairs

    public = {name for name in dir(CommunicationGraph) if not name.startswith("_")}
    assert public == {"add_edge", "edge_count", "edges", "node_count"}
    for builder in (neighbor_pairs, build_communication_graph):
        parameters = list(inspect.signature(builder).parameters)
        assert parameters == ["positions", "transmitting_range"]



def test_every_repro_import_in_the_package_resolves():
    """Imports inside functions too: a lazy import of a deleted module
    would otherwise only fail when its function first runs."""
    problems = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 0:
                continue
            if (node.module or "").split(".")[0] != "repro":
                continue
            try:
                owner = importlib.import_module(node.module)
            except ModuleNotFoundError:
                problems.append(f"{path.relative_to(SOURCE)}: {node.module}")
                continue
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                if not (
                    hasattr(owner, alias.name)
                    or importlib.util.find_spec(qualified) is not None
                ):
                    problems.append(f"{path.relative_to(SOURCE)}: {qualified}")
    assert problems == []
