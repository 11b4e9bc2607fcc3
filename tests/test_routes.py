"""The one tour rule at the boundary: every route the package takes from
outside goes through `model._order`.

Each entry point is called with a three-client route over a 4-node matrix
or instance (`Route` alone has no node count, so its bound is 2**63). A
bool, a float, a numpy float, a string, the depot 0, the bound itself, a
negative node and a repeated node are each refused with a RouteError
naming the node; a numpy integer is accepted. Before the rule the entry
points checked routes by hand and each missed something: `Route` and
`evaluate_route` read 2.0 as node 2, `improve` raised a bare TypeError on
a float, `route_to_arcs` accepted [1.5, 2] and `route_geojson` accepted a
repeated node.
"""

import re

import numpy as np
import pytest

from tdvrp.errors import RouteError
from tdvrp.export import route_geojson
from tdvrp.grasp import improve
from tdvrp.model import Route, SolverParams, evaluate_route
from tdvrp.oracle import route_to_arcs

from conftest import constant_matrix, grid_instance

MATRIX = constant_matrix(4, 60)
INSTANCE = grid_instance(4)
PARAMS = SolverParams(n_improve=1, l_delete=1)

# entry point: (call on a route, the bound n_nodes of its client ids)
ENTRY_POINTS = {
    "Route": (Route, 2**63),
    "evaluate_route": (lambda route: evaluate_route(route, MATRIX), 4),
    "improve": (lambda route: improve(route, MATRIX, PARAMS, np.random.default_rng(0)), 4),
    "route_to_arcs": (route_to_arcs, 4),
    "route_geojson": (lambda route: route_geojson(route, range(len(route) + 1), INSTANCE), 4),
}

# (case, bad node); the node takes the middle place of (1, node, 3)
BAD_NODES = [
    ("bool", True),
    ("float", 2.0),
    ("numpy float", np.float64(2.0)),
    ("string", "2"),
    ("depot", 0),
    ("negative", -2),
]


def _refused(call, route, message):
    with pytest.raises(RouteError, match=f"^{re.escape(message)}$"):
        call(route)


def _out_of_range(n_nodes, node):
    top = "2**63" if n_nodes == 2**63 else n_nodes
    return f"route node must be an integer in [1, {top}), got {node!r}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case, node", BAD_NODES, ids=[case for case, _ in BAD_NODES])
def test_a_route_node_must_be_a_client_id(entry, case, node):
    call, n_nodes = ENTRY_POINTS[entry]
    _refused(call, (1, node, 3), _out_of_range(n_nodes, node))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_route_node_must_be_below_the_node_count(entry):
    call, n_nodes = ENTRY_POINTS[entry]
    _refused(call, (1, n_nodes, 3), _out_of_range(n_nodes, n_nodes))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_string_is_not_a_route(entry):
    call, n_nodes = ENTRY_POINTS[entry]
    _refused(call, "123", _out_of_range(n_nodes, "1"))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_route_visits_each_node_once(entry):
    _refused(ENTRY_POINTS[entry][0], (1, 3, 3), "route [1, 3, 3] visits node 3 twice")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_partial_route_is_refused_where_every_client_is_needed(entry):
    call, _ = ENTRY_POINTS[entry]
    if entry == "improve":
        _refused(call, (1, 3), "route [1, 3] is not a complete route over clients 1..3")
    elif entry == "route_to_arcs":  # two clients: the tour is over nodes 0..2
        _refused(call, (1, 3), _out_of_range(3, 3))
    else:
        call((1, 3))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_numpy_integer_is_a_route_node(entry):
    call, _ = ENTRY_POINTS[entry]
    call((1, np.int64(2), 3))
    order = Route((1, np.int64(2), 3)).order
    assert order == (1, 2, 3) and all(type(v) is int for v in order)
