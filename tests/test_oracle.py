from itertools import permutations, product

import numpy as np
import pytest

from tdvrp.errors import InputError
from tdvrp.grasp import solve
from tdvrp.model import Route, SolverParams, evaluate_route
from tdvrp.oracle import (
    MAX_CLIENTS,
    ArcSolution,
    brute_force_optimum,
    check_milp_feasibility,
    route_to_arcs,
)

from conftest import constant_matrix, grid_instance, make_matrix, naive_departures, random_layers


def test_single_client_is_trivial():
    inst = grid_instance(2)
    m = constant_matrix(2, 600)
    route, sched = brute_force_optimum(inst, m)
    assert route.order == (1,)
    assert sched.total_cost == 1200


def test_three_clients_match_full_enumeration(rng):
    # constant in time but asymmetric; reference is a plain 6-tour enumeration
    layer = random_layers(rng, 4, 1, low=100, high=900)[0]
    inst = grid_instance(4)
    m = make_matrix([layer], 3600)
    route, sched = brute_force_optimum(inst, m)
    plain = layer.tolist()
    costs = {
        perm: naive_departures(list(perm), [plain], 3600)[1]
        for perm in permutations(range(1, 4))
    }
    assert sched.total_cost == min(costs.values())
    assert costs[route.order] == sched.total_cost


def test_symmetric_constant_matrix_equals_classic_optimum(rng):
    # time-independence: the layered optimum equals the single-layer optimum
    layer = random_layers(rng, 5, 1, low=100, high=900)[0]
    layer = np.minimum(layer, layer.T)
    np.fill_diagonal(layer, 0)
    inst = grid_instance(5)
    multi = make_matrix([layer, layer, layer], 1200)
    single = make_matrix([layer], 3600)
    _, sched_multi = brute_force_optimum(inst, multi)
    _, sched_single = brute_force_optimum(inst, single)
    assert sched_multi.total_cost == sched_single.total_cost


def test_ties_break_to_lexicographically_smallest():
    inst = grid_instance(3)
    m = constant_matrix(3, 500)  # every tour costs the same
    route, _ = brute_force_optimum(inst, m)
    assert route.order == (1, 2)


def test_cap_refuses_large_instances():
    inst = grid_instance(13)
    m = constant_matrix(13, 100)
    with pytest.raises(InputError):
        brute_force_optimum(inst, m)


def test_the_cap_itself_is_searched(rng):
    # MAX_CLIENTS clients: 720 blocks of 7 behind 3-client prefixes
    n = MAX_CLIENTS + 1
    inst = grid_instance(n)
    route, sched = brute_force_optimum(inst, constant_matrix(n, 500, n_layers=3, step_seconds=1200))
    assert route.order == tuple(range(1, n)) and sched.total_cost == 500 * n
    matrix = make_matrix(random_layers(rng, n, 4, low=60, high=900), 1800)
    route, sched = brute_force_optimum(inst, matrix)
    assert evaluate_route(route, matrix) == sched
    assert sched.total_cost <= solve(inst, matrix, SolverParams(seed=0)).best_schedule.total_cost


# --- arc encoding ---------------------------------------------------------------


def test_route_to_arcs_small_example():
    sol = route_to_arcs(Route((1, 2)))
    expected = np.zeros((3, 3), dtype=int)
    expected[0, 1] = expected[1, 2] = expected[2, 0] = 1
    assert np.array_equal(sol.x, expected)


def test_arc_rows_and_columns_sum_to_one(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        order = tuple(rng.permutation(range(1, n)))
        sol = route_to_arcs(Route(order))
        assert (sol.x.sum(axis=0) == 1).all()
        assert (sol.x.sum(axis=1) == 1).all()


def test_u_holds_visit_positions():
    sol = route_to_arcs(Route((2, 1, 3)))
    assert sol.u[2] == 1 and sol.u[1] == 2 and sol.u[3] == 3


def test_route_to_arcs_rejects_partial_route():
    with pytest.raises(InputError):
        route_to_arcs(Route((2, 5)))


# --- feasibility checker ----------------------------------------------------------


def test_complete_routes_pass_the_checker(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        order = tuple(rng.permutation(range(1, n)))
        sol = route_to_arcs(Route(order))
        assert check_milp_feasibility(sol, n) == []


def test_row_sum_violation_is_reported():
    x = np.zeros((3, 3), dtype=int)
    x[0, 1] = x[0, 2] = 1  # two departures from the depot
    x[1, 0] = 1
    sol = ArcSolution(x=x, u=np.array([0, 1, 2]))
    violations = check_milp_feasibility(sol, 3)
    kinds = {(v.constraint, v.nodes) for v in violations}
    assert ("out-degree", (0,)) in kinds
    assert ("out-degree", (2,)) in kinds


def test_two_subtours_violate_ordering_for_every_u():
    # depot tour 0->1->2->0 plus client-only loop 3->4->3: degrees are fine,
    # but no integer ordering satisfies the subtour constraints
    n = 5
    x = np.zeros((n, n), dtype=int)
    for i, j in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3)):
        x[i, j] = 1
    sol0 = ArcSolution(x=x, u=np.arange(n))
    degree_kinds = {
        v.constraint for v in check_milp_feasibility(sol0, n)
    } & {"out-degree", "in-degree"}
    assert not degree_kinds
    for u_clients in product(range(1, n + 1), repeat=n - 1):
        sol = ArcSolution(x=x, u=np.array([0, *u_clients]))
        violations = check_milp_feasibility(sol, n)
        assert any(v.constraint == "subtour-order" for v in violations)


def test_self_loops_are_rejected_by_construction():
    x = np.eye(3, dtype=int)
    with pytest.raises(InputError):
        ArcSolution(x=x, u=np.zeros(3, dtype=int))


def test_column_sum_violation_is_reported_before_the_ordering():
    # 0 -> 1 -> 0 and 2 -> 1: node 1 is entered twice and node 2 never
    x = np.zeros((3, 3), dtype=int)
    x[0, 1] = x[1, 0] = x[2, 1] = 1
    violations = check_milp_feasibility(ArcSolution(x=x, u=np.array([0, 1, 2])), 3)
    assert [(v.constraint, v.nodes, v.detail) for v in violations] == [
        ("in-degree", (1,), "column 1 sums to 2, expected 1"),
        ("in-degree", (2,), "column 2 sums to 0, expected 1"),
        ("subtour-order", (2, 1), "u[2]-u[1]+3*x[2,1] = 4 > 2"),
    ]


@pytest.mark.parametrize(
    "x, u, message",
    [
        (np.zeros((2, 3), dtype=int), np.zeros(2, dtype=int), "x must be square, got shape (2, 3)"),
        (np.zeros((3, 3), dtype=int), np.zeros(2, dtype=int),
         "u must have one entry per node, got shape (2,)"),
        (np.array([[0, 2], [1, 0]]), np.zeros(2, dtype=int), "x entries must be 0 or 1"),
        (np.eye(2, dtype=int), np.zeros(2, dtype=int),
         "x must have a zero diagonal (no self-arcs)"),
        # each was once cast to int64: 0.9 was read as 0, True as 1 and "1" as 1
        ([[0, 0.9], [1, 0]], [0, 1], "x[0][1] must be an integer in [-2**63, 2**63), got 0.9"),
        ([[0, 1], [True, 0]], [0, 1], "x[1][0] must be an integer in [-2**63, 2**63), got True"),
        ([[0, 1], [1, 0]], [0, "1"], "u[1] must be an integer in [-2**63, 2**63), got '1'"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [0, 1],
         f"x[0][0] must be an integer in [-2**63, 2**63), got {np.float64(0)!r}"),
    ],
    ids=["not-square", "u-shape", "not-0-or-1", "diagonal", "float", "bool", "string",
         "float-array"],
)
def test_arc_solutions_refuse_what_is_not_a_0_1_integer_matrix(x, u, message):
    with pytest.raises(InputError) as info:
        ArcSolution(x=x, u=u)
    assert str(info.value) == message


# --- completeness of the ordering condition on tiny instances ---------------------


def _derangement_matrices(n):
    for perm in permutations(range(n)):
        if all(perm[i] != i for i in range(n)):
            x = np.zeros((n, n), dtype=int)
            for i in range(n):
                x[i, perm[i]] = 1
            yield x, perm


def _is_single_tour(perm):
    n = len(perm)
    seen = 1
    node = perm[0]
    while node != 0 and seen <= n:
        node = perm[node]
        seen += 1
    return node == 0 and seen == n


def _admits_valid_ordering(x, n):
    for u_clients in product(range(1, n + 1), repeat=n - 1):
        sol = ArcSolution(x=x, u=np.array([0, *u_clients]))
        if not any(
            v.constraint == "subtour-order" for v in check_milp_feasibility(sol, n)
        ):
            return True
    return False


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ordering_condition_separates_exactly_the_single_tours(n):
    # every degree-feasible zero-diagonal assignment either is one closed tour
    # (then position-valued u works) or fails the ordering condition for all u
    for x, perm in _derangement_matrices(n):
        assert _admits_valid_ordering(x, n) == _is_single_tour(perm)


def test_ordering_condition_on_n6_via_difference_constraints():
    # same statement at n=6, decided by Bellman-Ford feasibility of the
    # difference-constraint system instead of enumerating u
    n = 6
    for x, perm in _derangement_matrices(n):
        # u_i - u_j <= n - 1 - n*x_ij for client pairs: feasible iff the
        # constraint graph (edge j->i with that weight) has no negative cycle
        nodes = list(range(1, n))
        dist = {i: 0 for i in nodes}
        for _ in range(len(nodes)):
            changed = False
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    w = n - 1 - n * int(x[i, j])
                    if dist[j] + w < dist[i]:
                        dist[i] = dist[j] + w
                        changed = True
            if not changed:
                break
        feasible = not changed
        assert feasible == _is_single_tour(perm)


def test_times_whose_tours_would_pass_64_bits_are_refused():
    # 5 arcs of 2**62 s once wrapped the clock negative and picked a negative layer
    inst = grid_instance(5)
    with pytest.raises(InputError, match=r"5 arcs of 4611686018427387904 s pass 2\*\*63 s"):
        brute_force_optimum(inst, constant_matrix(5, 2**62, n_layers=2))
    # the largest time that 5 arcs can sum exactly still prices every tour
    top = (2**63 - 1) // 5
    route, sched = brute_force_optimum(inst, constant_matrix(5, top, n_layers=2))
    assert route.order == (1, 2, 3, 4) and sched.total_cost == 5 * top
