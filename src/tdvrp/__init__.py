"""Single-vehicle routing on time-dependent travel-time matrices.

The travel time of an arc depends on the departure time: a stack of per-step
matrix layers covers the planning horizon, and route evaluation walks the
tour picking each arc's cost from the layer of its departure. A seeded
GRASP-plus-insertion-deletion heuristic optimizes tours; an exhaustive oracle
and an MTZ feasibility checker provide ground truth on small instances;
matrices come either from a quota-aware provider client or from a synthetic
traffic generator.
"""

from .compare import CompareReport, CompareRow, format_hm, run_compare
from .errors import (
    BackendError,
    IncompleteMatrixError,
    InputError,
    InvariantError,
    PermanentBackendError,
    PlanSuspendedError,
    QuotaExhaustedError,
    RouteError,
    TdvrpError,
    TransientBackendError,
)
from .export import route_geojson
from .fetch import (
    FetchPlan,
    FetchRequest,
    LiveBackend,
    QuotaBudget,
    RecordedBackend,
    execute_fetch,
    max_nodes_single_day,
    plan_fetch,
)
from .grasp import (
    SolveResult,
    construct_route,
    enumerate_insertions,
    improve,
    result_from_json,
    result_to_json,
    run_grasp,
    solve,
)
from .instances import bundled_paris, random_instance
from .model import (
    Instance,
    MatrixReport,
    MultiLayerMatrix,
    Node,
    Route,
    Schedule,
    SolverParams,
    average_matrix,
    evaluate_route,
    instance_from_json,
    instance_to_json,
    layer_index,
    load_instance,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_instance,
    save_matrix,
    travel_time,
    validate_matrix,
)
from .oracle import (
    ArcSolution,
    Violation,
    brute_force_optimum,
    check_milp_feasibility,
    objective_of,
    route_to_arcs,
)
from .synth import TrafficProfile, generate_synthetic, haversine_km, min_plus_closure

__version__ = "0.1.0"

__all__ = [
    "ArcSolution",
    "BackendError",
    "CompareReport",
    "CompareRow",
    "FetchPlan",
    "FetchRequest",
    "IncompleteMatrixError",
    "InputError",
    "Instance",
    "InvariantError",
    "LiveBackend",
    "MatrixReport",
    "MultiLayerMatrix",
    "Node",
    "PermanentBackendError",
    "PlanSuspendedError",
    "QuotaBudget",
    "QuotaExhaustedError",
    "RecordedBackend",
    "Route",
    "RouteError",
    "Schedule",
    "SolveResult",
    "SolverParams",
    "TdvrpError",
    "TrafficProfile",
    "TransientBackendError",
    "Violation",
    "average_matrix",
    "brute_force_optimum",
    "bundled_paris",
    "check_milp_feasibility",
    "construct_route",
    "enumerate_insertions",
    "evaluate_route",
    "execute_fetch",
    "format_hm",
    "generate_synthetic",
    "haversine_km",
    "improve",
    "instance_from_json",
    "instance_to_json",
    "layer_index",
    "load_instance",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "max_nodes_single_day",
    "min_plus_closure",
    "objective_of",
    "plan_fetch",
    "random_instance",
    "result_from_json",
    "result_to_json",
    "route_geojson",
    "route_to_arcs",
    "run_compare",
    "run_grasp",
    "save_instance",
    "save_matrix",
    "solve",
    "travel_time",
    "validate_matrix",
]
