import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tdvrp.errors import InputError
from tdvrp.grasp import (
    _insertion_deltas,
    construct_route,
    enumerate_insertions,
    improve,
    result_to_json,
    run_grasp,
    solve,
)
from tdvrp.instances import bundled_paris
from tdvrp.model import MultiLayerMatrix, Route, SolverParams, evaluate_route
from tdvrp.oracle import brute_force_optimum
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import constant_matrix, grid_instance, make_matrix, naive_departures, random_layers


def _naive_cost(order, matrix):
    return naive_departures(list(order), matrix.times.tolist(), matrix.step_seconds)[1]


def _insertions(partial, remaining, matrix):
    """The (node, position, delta) candidates, cheapest first, decoded from
    the ranking of the grid priced from the tour state of `partial`, its
    clock taken from the reference walk."""
    departures, total = naive_departures(list(partial), matrix.times.tolist(), matrix.step_seconds)
    nodes = sorted(remaining)
    deltas = _insertion_deltas([[0, *partial, 0]], [[*departures, total]], [nodes], matrix)[:, 0]
    return [_decode(rank, nodes, deltas) for rank in enumerate_insertions(deltas)]


def _decode(rank, nodes, deltas):
    """A node-major flat index into `deltas` as (node, position, delta);
    column j of the grid prices nodes[j]."""
    column, position = divmod(int(rank), deltas.shape[0])
    return nodes[column], position, deltas[position, column]


# --- insertion enumeration ------------------------------------------------------


def test_single_insertion_into_empty_route():
    m = constant_matrix(3, 450)
    assert _insertions((), {1}, m) == [(1, 0, 900)]  # out and back


def test_two_slots_around_one_client():
    m = constant_matrix(3, 450)
    # the tour grows from 2 arcs to 3, so both slots add one arc
    assert _insertions((1,), {2}, m) == [(2, 0, 450), (2, 1, 450)]


def test_deltas_match_from_scratch_evaluation(rng):
    layers = random_layers(rng, 4, 3)
    m = make_matrix(layers, 1200)
    partial = (2,)
    cands = _insertions(partial, {1, 3}, m)
    base = _naive_cost(partial, m)
    for node, position, delta in cands:
        trial = partial[:position] + (node,) + partial[position:]
        assert delta == _naive_cost(trial, m) - base
    deltas = [delta for _, _, delta in cands]
    assert deltas == sorted(deltas)


def test_ties_break_by_node_then_position():
    m = constant_matrix(4, 300)  # every candidate has the same delta
    cands = _insertions((1,), {2, 3}, m)
    assert [(node, position) for node, position, _ in cands] == [(2, 0), (2, 1), (3, 0), (3, 1)]


def test_columns_are_labelled_by_the_nodes_in_their_order():
    # priced in the order [2, 1]: node 2 costs 10 s out and back, node 1 200 s
    m = make_matrix([[[0, 100, 5], [100, 0, 100], [5, 100, 0]]], 3600)
    deltas = _insertion_deltas([[0, 0]], [[0, 0]], [[2, 1]], m)[:, 0]
    assert deltas.tolist() == [[10, 200]]
    ranking = enumerate_insertions(deltas)
    assert [_decode(rank, [2, 1], deltas) for rank in ranking] == [(2, 0, 10), (1, 0, 200)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ranking_is_sorted_by_delta_then_column_then_slot(data):
    slots = data.draw(st.integers(1, 5), label="slots")
    columns = data.draw(st.integers(1, 5), label="columns")
    # few distinct values, so most grids hold ties
    values = st.integers(-2, 2)
    grid = data.draw(st.lists(st.lists(values, min_size=columns, max_size=columns),
                              min_size=slots, max_size=slots), label="grid")
    expected = sorted(
        range(slots * columns),
        key=lambda flat: (grid[flat % slots][flat // slots], flat // slots, flat % slots),
    )
    assert enumerate_insertions(np.array(grid, dtype=np.int64)).tolist() == expected


# --- draws -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    bounds=st.lists(st.integers(1, 2**40), max_size=60),
    seed=st.integers(0, 2**64 - 1),
)
@example(bounds=[], seed=0)
@example(bounds=[1, 2**32 - 1, 2**32, 2**32 + 1, 3, 2**40, 1, 7], seed=1)
def test_one_draw_call_matches_one_scalar_call_per_bound(bounds, seed):
    # construction and improvement draw every pick of a phase in one call
    # with an array of bounds; it must give the values, and leave the
    # generator state, of the scalar calls a one-at-a-time search makes
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = batched.integers(0, bounds).tolist()
    assert picks == [int(scalar.integers(0, bound)) for bound in bounds]
    assert batched.bit_generator.state == scalar.bit_generator.state


# --- construction ----------------------------------------------------------------


def test_pure_greedy_is_seed_independent(rng):
    layers = random_layers(rng, 7, 4)
    m = make_matrix(layers, 1800)
    routes = {
        tuple(construct_route(m, 1, np.random.default_rng(seed), 1)[0][0][1:-1])
        for seed in range(8)
    }
    assert len(routes) == 1


def test_two_clients_always_yield_a_permutation(rng):
    layers = random_layers(rng, 3, 2)
    m = make_matrix(layers, 1800)
    for seed in range(6):
        (path,), _ = construct_route(m, 3, np.random.default_rng(seed), 1)
        assert sorted(path[1:-1]) == [1, 2]


def test_greedy_matches_independent_trace(rng):
    # step-by-step reference greedy built directly on the naive evaluator
    layers = random_layers(rng, 7, 3)
    m = make_matrix(layers, 1500)

    order = []
    remaining = set(range(1, 7))
    while remaining:
        base = _naive_cost(order, m)
        best = None
        for node in sorted(remaining):
            for pos in range(len(order) + 1):
                trial = order[:pos] + [node] + order[pos:]
                key = (_naive_cost(trial, m) - base, node, pos)
                if best is None or key < best:
                    best = key
        _, node, pos = best
        order.insert(pos, node)
        remaining.discard(node)

    (path,), (clock,) = construct_route(m, 1, np.random.default_rng(0), 1)
    assert path[1:-1] == order
    assert clock[-1] == _naive_cost(order, m)


# --- construction phase ----------------------------------------------------------


def test_single_trial_equals_construct_route(rng):
    layers = random_layers(rng, 6, 3)
    m = make_matrix(layers, 1800)
    params = SolverParams(n_grasp=1, k_grasp=1, seed=5)
    result = run_grasp(m, params, np.random.default_rng(5))
    paths, _ = construct_route(m, 1, np.random.default_rng(5), 1)
    assert list(result.best_route.order) == paths[0][1:-1]
    assert len(result.cost_trace) == 1


def test_best_cost_is_minimum_of_trace(rng):
    layers = random_layers(rng, 7, 4)
    m = make_matrix(layers, 1800)
    params = SolverParams(n_grasp=12, k_grasp=3, seed=3)
    result = run_grasp(m, params, np.random.default_rng(3))
    assert result.best_schedule.total_cost == min(result.cost_trace)
    assert len(result.cost_trace) == 12


def test_grasp_never_beats_exhaustive_optimum(rng):
    inst = grid_instance(8)
    layers = random_layers(rng, 8, 4)
    m = make_matrix(layers, 1800)
    _, optimum = brute_force_optimum(inst, m)
    params = SolverParams(n_grasp=30, k_grasp=3, seed=11)
    result = run_grasp(m, params, np.random.default_rng(11))
    assert result.best_schedule.total_cost >= optimum.total_cost


# --- improvement -----------------------------------------------------------------


def test_zero_rounds_return_input_unchanged(rng):
    layers = random_layers(rng, 6, 3)
    m = make_matrix(layers, 1800)
    start = Route((3, 1, 4, 2, 5))
    params = SolverParams(n_improve=0, l_delete=2, seed=0)
    result = improve(start, m, params, np.random.default_rng(0))
    assert result.best_route.order == start.order
    assert result.cost_trace == ()


def test_degenerate_pools_are_seed_independent(rng):
    layers = random_layers(rng, 7, 3)
    m = make_matrix(layers, 1800)
    start = Route(tuple(np.random.default_rng(1).permutation(range(1, 7))))
    params = SolverParams(n_improve=6, l_delete=2, k_del=1, k_ins=1, seed=0)
    outcomes = {
        improve(start, m, params, np.random.default_rng(seed)).best_route.order
        for seed in range(6)
    }
    assert len(outcomes) == 1


def test_improvement_never_worsens_and_respects_optimum(rng):
    inst = grid_instance(8)
    layers = random_layers(rng, 8, 4)
    m = make_matrix(layers, 1800)
    _, optimum = brute_force_optimum(inst, m)
    start = Route(tuple(np.random.default_rng(2).permutation(range(1, 8))))
    start_cost = evaluate_route(start, m).total_cost
    params = SolverParams(n_improve=15, l_delete=3, seed=4)
    result = improve(start, m, params, np.random.default_rng(4))
    final = result.best_schedule.total_cost
    assert optimum.total_cost <= final <= start_cost


def test_improvement_trace_is_non_increasing(rng):
    layers = random_layers(rng, 9, 4)
    m = make_matrix(layers, 1800)
    start = Route(tuple(np.random.default_rng(3).permutation(range(1, 9))))
    params = SolverParams(n_improve=20, l_delete=3, seed=9)
    trace = improve(start, m, params, np.random.default_rng(9)).cost_trace
    assert all(a >= b for a, b in zip(trace, trace[1:]))


def test_l_delete_larger_than_route_is_rejected(rng):
    layers = random_layers(rng, 4, 2)
    m = make_matrix(layers, 1800)
    params = SolverParams(l_delete=5)
    with pytest.raises(InputError):
        improve(Route((1, 2, 3)), m, params, np.random.default_rng(0))


def test_improve_rejects_partial_route(rng):
    layers = random_layers(rng, 5, 2)
    m = make_matrix(layers, 1800)
    params = SolverParams(n_improve=2, l_delete=1)
    with pytest.raises(InputError, match="complete route"):
        improve(Route((1, 3)), m, params, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [-500, -1, np.nan])
@pytest.mark.parametrize("call", ["solve", "run_grasp", "improve"])
def test_travel_times_below_zero_are_refused(call, bad, rng):
    # MultiLayerMatrix refuses the time when it is built, so no entry point
    # is ever handed such a matrix
    times = random_layers(rng, 6, 2).astype(float if np.isnan(bad) else np.int64)
    times[1, 3, 4] = bad
    params = SolverParams(n_grasp=2, n_improve=2, l_delete=2)
    calls = {
        "solve": lambda m: solve(grid_instance(6), m, params),
        "run_grasp": lambda m: run_grasp(m, params, np.random.default_rng(0)),
        "improve": lambda m: improve(Route((1, 2, 3, 4, 5)), m, params, np.random.default_rng(0)),
    }
    with pytest.raises(InputError, match=r"must be >= 0; times\[1\]\[3\]\[4\] = "):
        calls[call](MultiLayerMatrix(times=times, step_seconds=1800))


# --- full pipeline ----------------------------------------------------------------


def test_constant_matrix_cost_is_arc_count_times_constant():
    inst = grid_instance(6)
    m = constant_matrix(6, 700)
    result = solve(inst, m, SolverParams(n_grasp=4, n_improve=3, l_delete=2, seed=0))
    assert result.best_schedule.total_cost == 6 * 700


def test_same_seed_reproduces_result_exactly(rng):
    inst = grid_instance(8)
    layers = random_layers(rng, 8, 4)
    m = make_matrix(layers, 1800)
    params = SolverParams(n_grasp=10, n_improve=8, l_delete=3, seed=42)
    a = solve(inst, m, params)
    b = solve(inst, m, params)
    assert a == b
    assert result_to_json(a) == result_to_json(b)


def test_different_seeds_may_differ(rng):
    inst = grid_instance(9)
    layers = random_layers(rng, 9, 4)
    m = make_matrix(layers, 1800)
    routes = {
        solve(inst, m, SolverParams(n_grasp=3, n_improve=2, l_delete=2, seed=s)).best_route.order
        for s in range(10)
    }
    assert len(routes) > 1


def test_schedule_matches_independent_evaluation(rng):
    inst = grid_instance(7)
    layers = random_layers(rng, 7, 3)
    m = make_matrix(layers, 1500)
    result = solve(inst, m, SolverParams(n_grasp=5, n_improve=4, l_delete=2, seed=1))
    assert result.best_schedule.total_cost == _naive_cost(result.best_route.order, m)


def test_dimension_mismatch_is_rejected(rng):
    inst = grid_instance(5)
    m = make_matrix(random_layers(rng, 6, 2), 1800)
    with pytest.raises(InputError):
        solve(inst, m, SolverParams())


def test_bundled_instance_with_reference_parameters():
    inst = bundled_paris()
    profile = TrafficProfile(
        base_speed_kmh=22.0,
        peak_windows=((0, 1, 2.5), (3, 6, 1.9)),
        jitter_range=(0.9, 1.2),
        seed=7,
    )
    m = generate_synthetic(inst, 6, 7200, profile)
    params = SolverParams(n_grasp=30, k_grasp=3, n_improve=20, l_delete=6, seed=0)
    result = solve(inst, m, params)
    assert result.best_route.is_complete(31)
    assert len(result.cost_trace) == 50
    doc = json.loads(result_to_json(result))
    assert sorted(doc["route"]) == list(range(1, 31))


def test_result_json_shape(rng):
    inst = grid_instance(5)
    layers = random_layers(rng, 5, 2)
    m = make_matrix(layers, 1800)
    result = solve(inst, m, SolverParams(n_grasp=2, n_improve=1, l_delete=1, seed=8))
    doc = json.loads(result_to_json(result))
    assert set(doc) == {
        "route", "departures_s", "total_cost_s", "cost_trace_s", "seed", "rng", "params"
    }
    assert doc["seed"] == 8
    assert doc["rng"] == "numpy-pcg64"
    assert doc["total_cost_s"] == result.best_schedule.total_cost
    assert len(doc["departures_s"]) == len(doc["route"]) + 1
