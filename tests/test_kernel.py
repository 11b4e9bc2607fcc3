"""The batched lane walk against the scalar reference recursion.

`model._advance` prices many tours at once, each lane starting from a cached
departure part-way along a tour. These properties check it, the tour edits
that keep a clock, and the move pricing, lockstep construction and
exhaustive search built on them, against
`naive_departures` and plain one-at-a-time loops on random tours, start
slots and matrices: integer and fractional layers, departures far past the
horizon, empty and one-client tours, values drawn from a narrow range so that
many moves tie, and diagonals that are not zero (a walk must never read a
self-arc).
"""

from itertools import permutations

import numpy as np
from hypothesis import given, settings, strategies as st

from tdvrp.grasp import _delete, _deletion_savings, _insert, _insertion_deltas, run_grasp
from tdvrp.model import MultiLayerMatrix, SolverParams, _advance, average_matrix
from tdvrp.oracle import brute_force_optimum

from conftest import constant_matrix, grid_instance, naive_departures

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def matrices(draw, min_nodes=2, max_nodes=8):
    """A random matrix; a short step sends many departures past the horizon."""
    n = draw(st.integers(min_nodes, max_nodes))
    n_layers = draw(st.integers(1, 4))
    step = draw(st.sampled_from([1, 7, 150, 900, 3600]))
    fractional = draw(st.booleans())
    high = draw(st.sampled_from([4, 2000]))  # 4: ties everywhere
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the diagonal stays random: no tour walk may ever read it
    times = rng.integers(0, high, size=(n_layers, n, n))
    if fractional:
        times = times / 3.0
    return MultiLayerMatrix(times=times, step_seconds=step)


@st.composite
def tours(draw, matrix, min_clients=0):
    clients = list(range(1, matrix.n_nodes))
    size = draw(st.integers(min_clients, len(clients)))
    return tuple(draw(st.permutations(clients))[:size])


def _naive(order, matrix):
    return naive_departures(list(order), matrix.times.tolist(), matrix.step_seconds)


def _exact(values):
    """Values compared bit for bit (every integer here is exact as a float)."""
    return [float(v).hex() for v in np.ravel(values)]


@SETTINGS
@given(data=st.data())
def test_lanes_from_any_start_slots_finish_at_the_tour_cost(data):
    matrix = data.draw(matrices())
    order = data.draw(tours(matrix))
    departures, total = _naive(order, matrix)
    path = [0, *order, 0] if order else [0]
    tail = np.array(path[1:], dtype=np.intp)
    slots = sorted(data.draw(st.sets(st.integers(0, len(departures) - 1), min_size=1)))
    starts = np.array(slots, dtype=np.intp)
    k = np.array([departures[p] for p in slots], dtype=matrix.times.dtype)
    cur = np.array([path[p] for p in slots], dtype=np.intp)
    # the lane from slot p walks tail[p:]; later slots finish first
    steps = []
    for j in range(len(tail)):
        moving = starts[starts + j < len(tail)]
        if len(moving) == 0:
            break
        steps.append(tail[moving + j])
    arrivals = _advance(k, cur, steps, matrix)
    assert _exact(arrivals) == _exact([total] * len(slots))


@SETTINGS
@given(data=st.data())
def test_insertion_deltas_match_full_reevaluation(data):
    matrix = data.draw(matrices())
    clients = list(range(1, matrix.n_nodes))
    size = data.draw(st.integers(0, len(clients)))
    orders = [
        tuple(data.draw(st.permutations(clients))[:size])
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    nodes = [sorted(set(clients) - set(order)) for order in orders]
    walks = [_naive(order, matrix) for order in orders]
    deltas = _insertion_deltas(
        np.array([[0, *order, 0] for order in orders], dtype=np.intp),
        np.array([[*departures, total] for departures, total in walks], dtype=matrix.times.dtype),
        np.array(nodes, dtype=np.intp),
        matrix,
    )
    assert deltas.shape == (size + 1, len(orders), len(clients) - size)
    expected = [
        [
            [_naive(order[:p] + (node,) + order[p:], matrix)[1] - total for node in free]
            for order, free, (_, total) in zip(orders, nodes, walks)
        ]
        for p in range(size + 1)
    ]
    assert _exact(deltas) == _exact(expected)


def _state(order, matrix):
    """The tour state of `order`, its clock from the reference walk."""
    departures, total = _naive(order, matrix)
    return [0, *order, 0], [*departures, total]


@SETTINGS
@given(data=st.data())
def test_edits_keep_the_clock_of_the_path(data):
    matrix = data.draw(matrices())
    path, clock = _state(data.draw(tours(matrix)), matrix)
    for _ in range(data.draw(st.integers(1, 12))):
        free = sorted(set(range(1, matrix.n_nodes)) - set(path))
        if len(path) > 2 and (not free or data.draw(st.booleans())):
            _delete(path, clock, data.draw(st.integers(1, len(path) - 2)), matrix)
        else:
            node = data.draw(st.sampled_from(free))
            _insert(path, clock, data.draw(st.integers(0, len(path) - 2)), node, matrix)
        assert _exact(clock) == _exact(_state(path[1:-1], matrix)[1])


@SETTINGS
@given(data=st.data())
def test_deletion_savings_match_full_reevaluation(data):
    matrix = data.draw(matrices())
    order = data.draw(tours(matrix, min_clients=1))
    base = _naive(order, matrix)[1]
    expected = [base - _naive(order[:i] + order[i + 1:], matrix)[1] for i in range(len(order))]
    assert _exact(_deletion_savings(*_state(order, matrix), matrix)) == _exact(expected)


def test_deleting_the_only_client_leaves_a_free_empty_tour():
    times = np.full((2, 3, 3), 500)  # a diagonal read would add 500
    matrix = MultiLayerMatrix(times=times, step_seconds=600)
    assert _deletion_savings(*_state((2,), matrix), matrix).tolist() == [1000]
    averaged = average_matrix(matrix)
    assert _deletion_savings(*_state((2,), averaged), averaged).tolist() == [1000.0]


# --- lockstep construction ---------------------------------------------------


def _trial_by_trial(matrix, params, rng):
    """run_grasp rebuilt one trial after another, each pick drawn just before
    it is made from a plain sort of the candidates by (delta, node,
    position), every delta priced by two reference walks."""
    trace, best = [], None
    for _ in range(params.n_grasp):
        order, remaining = (), set(range(1, matrix.n_nodes))
        while remaining:
            base = _naive(order, matrix)[1]
            candidates = sorted(
                (_naive(order[:p] + (node,) + order[p:], matrix)[1] - base, node, p)
                for node in remaining
                for p in range(len(order) + 1)
            )
            pick = int(rng.integers(0, min(params.k_grasp, len(candidates))))
            _, node, position = candidates[pick]
            order = order[:position] + (node,) + order[position:]
            remaining.discard(node)
        cost = _naive(order, matrix)[1]
        trace.append(cost)
        if best is None or cost < best[1]:
            best = (order, cost)
    return best[0], trace


@SETTINGS
@given(
    matrix=matrices(max_nodes=13),
    k_grasp=st.integers(1, 5),
    n_grasp=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_lockstep_construction_matches_trial_by_trial(matrix, k_grasp, n_grasp, seed):
    params = SolverParams(n_grasp=n_grasp, k_grasp=k_grasp, seed=seed)
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    result = run_grasp(matrix, params, rng)
    order, trace = _trial_by_trial(matrix, params, reference)
    assert result.best_route.order == order
    assert _exact(result.cost_trace) == _exact(trace)
    assert rng.bit_generator.state == reference.bit_generator.state


# --- batched exhaustive search ------------------------------------------------


def _plain_scan(matrix):
    """Lexicographically first cheapest tour, one full walk per permutation."""
    best = min(
        permutations(range(1, matrix.n_nodes)),
        key=lambda perm: _naive(perm, matrix)[1],
    )
    return best, _naive(best, matrix)


@settings(max_examples=40, deadline=None)
@given(matrix=matrices(max_nodes=8))
def test_oracle_matches_plain_scan(matrix):
    route, sched = brute_force_optimum(grid_instance(matrix.n_nodes), matrix)
    order, (departures, total) = _plain_scan(matrix)
    assert route.order == order
    assert _exact(sched.departures) == _exact(departures)
    assert _exact([sched.total_cost]) == _exact([total])


def test_oracle_spanning_several_blocks_matches_plain_scan():
    # 8 clients: one block of 5,040 suffixes behind each of 8 prefixes
    rng = np.random.default_rng(5)
    times = rng.integers(50, 900, size=(3, 9, 9))
    for matrix in (MultiLayerMatrix(times=times, step_seconds=1200),
                   average_matrix(MultiLayerMatrix(times=times, step_seconds=1200))):
        route, sched = brute_force_optimum(grid_instance(9), matrix)
        order, (_, total) = _plain_scan(matrix)
        assert route.order == order
        assert _exact([sched.total_cost]) == _exact([total])


def test_oracle_ties_go_to_the_lexicographically_smallest_tour():
    for n in (2, 4, 8, 9):
        for matrix in (constant_matrix(n, 700, n_layers=3, step_seconds=900),
                       average_matrix(constant_matrix(n, 701, n_layers=3))):
            route, _ = brute_force_optimum(grid_instance(n), matrix)
            assert route.order == tuple(range(1, n))
