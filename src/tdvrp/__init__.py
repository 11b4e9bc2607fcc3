"""Single-vehicle routing on time-dependent travel-time matrices.

The travel time of an arc depends on the departure time: a stack of per-step
matrix layers covers the planning horizon, and route evaluation walks the
tour picking each arc's cost from the layer of its departure. A seeded
GRASP-plus-insertion-deletion heuristic optimizes tours; an exhaustive oracle
and an MTZ feasibility checker provide ground truth on small instances;
matrices come either from a quota-aware provider client or from a synthetic
traffic generator.

The top level re-exports what the demos and the README use; everything else
is imported from its module (`tdvrp.model`, `tdvrp.grasp`, `tdvrp.errors`, ...).
"""

from .compare import format_hm, run_compare
from .export import route_geojson
from .fetch import QuotaBudget, RecordedBackend, execute_fetch, max_nodes_single_day, plan_fetch
from .grasp import solve
from .instances import bundled_paris
from .model import (
    MultiLayerMatrix,
    Route,
    SolverParams,
    evaluate_route,
    save_matrix,
    travel_time,
    validate_matrix,
)
from .synth import TrafficProfile, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "MultiLayerMatrix",
    "QuotaBudget",
    "RecordedBackend",
    "Route",
    "SolverParams",
    "TrafficProfile",
    "bundled_paris",
    "evaluate_route",
    "execute_fetch",
    "format_hm",
    "generate_synthetic",
    "max_nodes_single_day",
    "plan_fetch",
    "route_geojson",
    "run_compare",
    "save_matrix",
    "solve",
    "travel_time",
    "validate_matrix",
]
