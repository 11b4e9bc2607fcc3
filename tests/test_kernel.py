"""The batched lane walks against the scalar reference recursion.

`model._advance` prices many tours at once, each lane starting from a cached
departure part-way along a tour, and `grasp._layer_runs` finishes lanes on
their own tour one layer run at a time. These properties check both, that
they price every move alike whichever one the cost model would pick, the
tour edits that keep a clock, and the move pricing, lockstep construction,
speculative improvement rounds and exhaustive search built on them, against
`naive_departures` and plain one-at-a-time loops on random tours, start
slots and matrices: integer and fractional layers, departures far past the
horizon, empty and one-client tours, values drawn from a narrow range so that
many moves tie, and diagonals that are not zero (a walk must never read a
self-arc).
"""

import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdvrp import grasp
from tdvrp.errors import InputError
from tdvrp.grasp import (
    MAX_BATCH,
    _delete,
    _deletion_savings,
    _insert,
    _insertion_deltas,
    _layer_runs,
    improve,
    run_grasp,
    solve,
)
from tdvrp.instances import random_instance
from tdvrp.model import MultiLayerMatrix, SolverParams, _advance, average_matrix
from tdvrp.oracle import brute_force_optimum
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import constant_matrix, grid_instance, naive_departures, random_layers

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def matrices(draw, min_nodes=2, max_nodes=8, integer=False):
    """A random matrix; a short step sends many departures past the horizon."""
    n = draw(st.integers(min_nodes, max_nodes))
    n_layers = draw(st.integers(1, 4))
    step = draw(st.sampled_from([1, 7, 150, 900, 3600]))
    fractional = not integer and draw(st.booleans())
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
    path = np.array([0, *order, 0] if order else [0], dtype=np.intp)
    own = path[:-1] * matrix.n_nodes + path[1:]  # arc p as a flat index
    slots = sorted(data.draw(st.sets(st.integers(0, len(departures) - 1), min_size=1)))
    starts = np.array(slots, dtype=np.intp)
    k = np.array([departures[p] for p in slots], dtype=matrix.times.dtype)
    # the lane from slot p walks own[p:]; later slots finish first
    steps = []
    for j in range(len(own)):
        moving = starts[starts + j < len(own)]
        if len(moving) == 0:
            break
        steps.append(own[moving + j])
    arrivals = _advance(k, steps, matrix)
    assert _exact(arrivals) == _exact([total] * len(slots))


def test_float_clocks_far_past_the_horizon_walk_on_the_last_layer():
    # at a step of 1 s these clocks are layer numbers past 2**63: the layer
    # must be clamped before it is cast to an integer index, or the cast
    # overflows (a RuntimeWarning, an error in this suite)
    rng = np.random.default_rng(12)
    times = rng.integers(1, 2000, size=(3, 6, 6)) * 1e18 / 3.0
    matrix = MultiLayerMatrix(times=times, step_seconds=1)
    order = (3, 1, 5, 2, 4)
    departures, total = _naive(order, matrix)
    path = np.array([0, *order, 0], dtype=np.intp)
    own = path[:-1] * matrix.n_nodes + path[1:]
    k = np.array(departures, dtype=np.float64)  # one lane per slot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arrivals = _advance(k, (own[j:] for j in range(len(own))), matrix)
    assert max(departures) > 2**63
    assert _exact(arrivals) == _exact([total] * len(departures))


def _finish(path, pos, k, matrix):
    """Reference: leave path[pos] at time k and drive the rest of the path,
    one arc at a time, each on the layer of its own departure."""
    for a, b in zip(path[pos:], path[pos + 1:]):
        layer = min(k // matrix.step_seconds, matrix.n_layers - 1)
        k += int(matrix.times[layer, a, b])
    return k


@SETTINGS
@given(data=st.data())
def test_layer_runs_match_the_reference_walk(data):
    # 1-4 equal-length tours; lanes start from the tours' own clocks and
    # from arbitrary times up to far past the horizon
    n_layers = data.draw(st.integers(1, 8))
    step = data.draw(st.integers(1, 3600))
    clients = data.draw(st.integers(0, 13))
    high = data.draw(st.sampled_from([1, 4, 2000]))  # 1: every arc takes 0 s
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = clients + 2  # one node more than the tours visit: a matrix has >= 2
    matrix = MultiLayerMatrix(times=rng.integers(0, high, size=(n_layers, n, n)), step_seconds=step)
    orders = [
        rng.permutation(np.arange(1, n))[:clients].tolist()
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    paths = np.array([[0, *order, 0] for order in orders], dtype=np.intp)
    lanes = data.draw(st.lists(
        st.tuples(st.integers(0, len(orders) - 1), st.integers(0, clients + 1),
                  st.one_of(st.none(), st.integers(0, 3 * n_layers * step + 2000 * n))),
        min_size=1, max_size=30,
    ))
    tour, pos, k, expected = [], [], [], []
    for t, p, start in lanes:
        departures, total = _naive(orders[t], matrix)
        if start is None and clients:  # from the tour's own clock, to its cost
            start = [*departures, total][p]
            expected.append(total)
        else:  # an empty tour's path [0, 0] is walked as it stands
            start = start or 0
            expected.append(_finish(paths[t].tolist(), p, start, matrix))
        tour.append(t), pos.append(p), k.append(start)
    got = _layer_runs(paths, np.array(k, dtype=np.int64), np.array(tour), np.array(pos), matrix)
    assert got.tolist() == expected


def test_layer_runs_refuse_sums_that_would_wrap():
    # 30 tours x 8 layers x 41 arcs near 1e15 s: the laid-out rows pass 2**63
    rng = np.random.default_rng(3)
    paths = np.array([[0, *rng.permutation(np.arange(1, 41)), 0] for _ in range(30)])
    lanes = np.zeros(30, dtype=np.int64), np.arange(30), np.zeros(30, dtype=np.intp)
    for scale, fits in ((10**14, True), (10**15, False)):
        times = rng.integers(scale // 2, scale, size=(8, 41, 41))
        matrix = MultiLayerMatrix(times=times, step_seconds=3600)
        if fits:
            got = _layer_runs(paths, *lanes, matrix)
            assert got.tolist() == [_finish(path.tolist(), 0, 0, matrix) for path in paths]
        else:
            with pytest.raises(InputError, match="too large to price exactly"):
                _layer_runs(paths, *lanes, matrix)


def test_forty_client_solve_by_layer_runs_matches_the_walk(monkeypatch):
    # at 7,200 s a step a tour reaches about three layers, so many moves are
    # priced by layer runs on the integer matrix; its float copy is walked,
    # and its sums are the same integers
    instance = random_instance(40, seed=8)
    profile = TrafficProfile(25.0, ((0, 2, 1.6), (5, 8, 1.4)), (0.9, 1.2), seed=8)
    matrix = generate_synthetic(instance, 8, 7200, profile)
    walked = MultiLayerMatrix(times=matrix.times.astype(float), step_seconds=7200)
    params = SolverParams(n_grasp=3, n_improve=12, l_delete=6, seed=8)
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return _layer_runs(*args)

    monkeypatch.setattr(grasp, "_layer_runs", counted)
    result = solve(instance, matrix, params)
    runs = len(calls)
    reference = solve(instance, walked, params)
    assert runs > 12 and len(calls) == runs  # the float copy is only walked
    assert result.best_route == reference.best_route
    assert _exact(result.cost_trace) == _exact(reference.cost_trace)
    departures, total = _naive(result.best_route.order, matrix)
    assert _exact(result.best_schedule.departures) == _exact(departures)
    assert _exact([result.best_schedule.total_cost]) == _exact([total])


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
    # rows of equal-length tours, all priced in one walk
    matrix = data.draw(matrices())
    clients = list(range(1, matrix.n_nodes))
    size = data.draw(st.integers(1, len(clients)))
    orders = [
        tuple(data.draw(st.permutations(clients))[:size])
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    states = [_state(order, matrix) for order in orders]
    savings = _deletion_savings([p for p, _ in states], [c for _, c in states], matrix)
    assert savings.shape == (size, len(orders))
    for t, order in enumerate(orders):
        base = _naive(order, matrix)[1]
        expected = [base - _naive(order[:i] + order[i + 1:], matrix)[1] for i in range(size)]
        assert _exact(savings[:, t]) == _exact(expected)


@SETTINGS
@given(data=st.data())
def test_deleting_the_only_client_leaves_a_free_empty_tour(data):
    matrix = data.draw(matrices())
    times = matrix.times.copy()
    n = matrix.n_nodes
    times[:, range(n), range(n)] = 10**6  # a self-arc read would add this
    matrix = MultiLayerMatrix(times=times, step_seconds=matrix.step_seconds)
    clients = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    states = [_state((node,), matrix) for node in clients]
    savings = _deletion_savings([p for p, _ in states], [c for _, c in states], matrix)
    assert savings.shape == (1, len(clients))
    assert _exact(savings[0]) == _exact([clock[-1] for _, clock in states])


def _both_branches(price):
    """The grid `price()` returns with every move priced by layer runs, then
    with every move walked arc by arc, whatever the cost model would pick."""
    grids = []
    for runs in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grasp, "_by_layer_runs", lambda *_: runs)
            grids.append(price())
    return grids


@SETTINGS
@given(data=st.data())
def test_layer_runs_and_the_walk_price_every_move_alike(data):
    # rows of equal-length tours on integer matrices; the grids of small
    # moves are rarely priced by layer runs unless forced to be
    matrix = data.draw(matrices(max_nodes=10, integer=True))
    clients = list(range(1, matrix.n_nodes))
    size = data.draw(st.integers(0, len(clients)))
    orders = [
        tuple(data.draw(st.permutations(clients))[:size])
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    states = [_state(order, matrix) for order in orders]
    paths, clocks = [p for p, _ in states], [c for _, c in states]
    free = [sorted(set(clients) - set(order)) for order in orders]
    moves = []
    if size:
        moves.append(lambda: _deletion_savings(paths, clocks, matrix))
    if free[0]:
        # a construction step (every free node) and a one-node reinsertion
        moves.append(lambda: _insertion_deltas(paths, clocks, free, matrix))
        moves.append(lambda: _insertion_deltas(paths, clocks, [f[:1] for f in free], matrix))
    for price in moves:
        runs, walk = _both_branches(price)
        assert runs.dtype == walk.dtype == np.int64
        assert runs.shape == walk.shape
        assert runs.tolist() == walk.tolist()


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


# --- speculative improvement rounds ------------------------------------------


def _round_by_round(order, matrix, params, rng):
    """improve rebuilt one round after another, each pick drawn just before
    it is made from a plain sort of the moves, every move priced by two
    reference walks: deletions by (saving descending, node), reinsertions by
    (delta, slot)."""
    best, trace = tuple(order), []
    for _ in range(params.n_improve):
        tour, deleted = best, []
        for _ in range(params.l_delete):
            base = _naive(tour, matrix)[1]
            moves = sorted(
                (-(base - _naive(tour[:i] + tour[i + 1:], matrix)[1]), node, i)
                for i, node in enumerate(tour)
            )
            _, node, i = moves[int(rng.integers(0, min(params.k_del, len(moves))))]
            deleted.append(node)
            tour = tour[:i] + tour[i + 1:]
        for node in deleted:
            base = _naive(tour, matrix)[1]
            moves = sorted(
                (_naive(tour[:p] + (node,) + tour[p:], matrix)[1] - base, p)
                for p in range(len(tour) + 1)
            )
            _, p = moves[int(rng.integers(0, min(params.k_ins, len(moves))))]
            tour = tour[:p] + (node,) + tour[p:]
        if _naive(tour, matrix)[1] < _naive(best, matrix)[1]:
            best = tour
        trace.append(_naive(best, matrix)[1])
    return best, trace


def _acceptances(start_cost, trace):
    """(round's place in its batch, batch length) of every accepted round,
    replaying the batch schedule: one round after an acceptance, twice as
    many after a batch that accepts none, at most MAX_BATCH."""
    costs = [start_cost, *trace]
    accepted = [costs[r + 1] < costs[r] for r in range(len(trace))]
    places, r, batch = [], 0, 1
    while r < len(trace):
        rounds = accepted[r : r + batch]
        if True in rounds:
            won = rounds.index(True)
            places.append((won, len(rounds)))
            r, batch = r + won + 1, 1
        else:
            r, batch = r + len(rounds), min(2 * batch, MAX_BATCH)
    return places


def _check_improve(order, matrix, params):
    rng, reference = np.random.default_rng(params.seed), np.random.default_rng(params.seed)
    result = improve(order, matrix, params, rng)
    best, trace = _round_by_round(order, matrix, params, reference)
    assert result.best_route.order == best
    assert _exact(result.cost_trace) == _exact(trace)
    departures, total = _naive(best, matrix)
    assert _exact(result.best_schedule.departures) == _exact(departures)
    assert _exact([result.best_schedule.total_cost]) == _exact([total])
    assert rng.bit_generator.state == reference.bit_generator.state
    return _acceptances(_naive(order, matrix)[1], trace)


@SETTINGS
@given(data=st.data())
def test_speculative_improvement_matches_round_by_round(data):
    matrix = data.draw(matrices(max_nodes=11))
    clients = matrix.n_nodes - 1
    params = SolverParams(
        n_improve=data.draw(st.integers(0, 30)),
        l_delete=data.draw(st.integers(1, clients)),
        k_del=data.draw(st.integers(1, 4)),
        k_ins=data.draw(st.integers(1, 3)),
        seed=data.draw(st.integers(0, 2**64 - 1)),
    )
    _check_improve(data.draw(tours(matrix, min_clients=clients)), matrix, params)


def test_speculative_improvement_rejecting_every_round():
    # every tour of a constant matrix costs the same, so no round is kept
    matrix = constant_matrix(8, 700, n_layers=2, step_seconds=900)
    params = SolverParams(n_improve=40, l_delete=4, k_del=3, k_ins=2, seed=5)
    assert _check_improve((3, 1, 7, 5, 2, 6, 4), matrix, params) == []


def _random_start():
    rng = np.random.default_rng(31)
    matrix = MultiLayerMatrix(times=random_layers(rng, 10, 3), step_seconds=1800)
    return tuple(int(v) for v in rng.permutation(range(1, 10))), matrix


def test_speculative_improvement_accepting_every_round():
    order, matrix = _random_start()
    params = SolverParams(n_improve=8, l_delete=3, k_del=3, k_ins=2, seed=164)
    assert _check_improve(order, matrix, params) == [(0, 1)] * 8


@pytest.mark.parametrize(
    "seed, place",
    [(2, "first"), (7, "middle"), (3, "last")],
)
def test_speculative_improvement_accepting_within_a_batch(seed, place):
    order, matrix = _random_start()
    params = SolverParams(n_improve=40, l_delete=3, k_del=3, k_ins=2, seed=seed)
    places = _check_improve(order, matrix, params)
    where = {
        "first": [won == 0 for won, size in places if size > 1],
        "middle": [0 < won < size - 1 for won, size in places],
        "last": [won == size - 1 for won, size in places if size > 1],
    }
    assert any(where[place])


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
