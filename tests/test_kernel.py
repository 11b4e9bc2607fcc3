"""The batched lane walks against the scalar reference recursion.

`model._advance` prices many tours at once, each lane starting from a cached
departure part-way along a tour, and `grasp._layer_runs` finishes lanes on
their own tour one layer run at a time, each pass over the lanes that start
by its layer. These properties check both, that they price every move alike
whichever way the pricing rule (`grasp._way`) would pick, that bounded
construction steps, whose kept lanes go by layer runs, keep the ranks a
trial can draw, that keyed ranking sorts as the stable sort does,
the tour edits that keep a clock, and the move pricing, lockstep
construction, speculative improvement rounds and exhaustive search built on
them, against `naive_departures` and plain one-at-a-time loops on random
tours, start slots and matrices: integer and fractional layers, departures
far past the horizon, empty and one-client tours, and values drawn from a
narrow range so that many moves tie.
"""

import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tdvrp import grasp, oracle
from tdvrp.errors import InputError
from tdvrp.grasp import (
    MAX_BATCH,
    _delete,
    _deletion_savings,
    _insert,
    _insertion_deltas,
    _layer_runs,
    construct_route,
    enumerate_insertions,
    improve,
    run_grasp,
    solve,
)
from tdvrp.instances import random_instance
from tdvrp.model import MultiLayerMatrix, SolverParams, _advance, average_matrix
from tdvrp.oracle import brute_force_optimum
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import (
    constant_matrix,
    grid_instance,
    naive_departures,
    random_layers,
    zero_diagonal,
)

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
    times = zero_diagonal(rng.integers(0, high, size=(n_layers, n, n)))
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
    times = zero_diagonal(rng.integers(1, 2000, size=(3, 6, 6))) * 1e18 / 3.0
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


def _arcs(paths, matrix):
    """Each tour's arcs as flat indices, the form `_layer_runs` reads."""
    paths = np.asarray(paths)
    return paths[:, :-1] * matrix.n_nodes + paths[:, 1:]


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
    # 1-4 equal-length tours; lanes start from the tours' own clocks, from
    # times within a tour's span and from times up to far past the horizon.
    # Up to 48 layers: on a horizon far longer than the tours, lanes reach
    # the depot layers apart and most passes find every lane there
    n_layers = data.draw(st.integers(1, 48))
    step = data.draw(st.integers(1, 3600))
    clients = data.draw(st.integers(0, 13))
    high = data.draw(st.sampled_from([1, 4, 2000]))  # 1: every arc takes 0 s
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = clients + 2  # one node more than the tours visit: a matrix has >= 2
    times = zero_diagonal(rng.integers(0, high, size=(n_layers, n, n)))
    matrix = MultiLayerMatrix(times=times, step_seconds=step)
    orders = [
        rng.permutation(np.arange(1, n))[:clients].tolist()
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    paths = np.array([[0, *order, 0] for order in orders], dtype=np.intp)
    span = 2000 * n  # longer than any tour here takes
    lane = st.tuples(st.integers(0, len(orders) - 1), st.integers(0, clients + 1),
                     st.one_of(st.none(), st.integers(0, span),
                               st.integers(0, 3 * n_layers * step + span)))
    # a few lanes, or up to 300: a pass over a prefix of many lanes
    lanes = data.draw(st.lists(lane, min_size=1, max_size=30)
                      | st.lists(lane, min_size=31, max_size=300))
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
    # as drawn, earliest start first or latest start first
    order = data.draw(st.sampled_from([None, 1, -1]))
    listed = np.arange(len(k)) if order is None else np.argsort(order * np.array(k), kind="stable")
    got = _layer_runs(_arcs(paths, matrix), np.array(k, dtype=np.int64)[listed],
                      np.array(tour)[listed], np.array(pos)[listed], matrix)
    assert got.tolist() == np.array(expected)[listed].tolist()


def _lanes_from_the_depot(trials):
    return np.zeros(trials, dtype=np.int64), np.arange(trials), np.zeros(trials, dtype=np.intp)


def test_layer_runs_refuse_sums_that_would_wrap():
    # 30 tours x 8 layers x 41 arcs: a layer's slab lays the 30 rows end to
    # end, each 2 * top + 2 s wide, which passes 2**63 near 1e16 s an arc
    rng = np.random.default_rng(3)
    paths = np.array([[0, *rng.permutation(np.arange(1, 41)), 0] for _ in range(30)])
    for scale, fits in ((10**14, True), (10**15, True), (10**16, False)):
        times = zero_diagonal(rng.integers(scale // 2, scale, size=(8, 41, 41)))
        matrix = MultiLayerMatrix(times=times, step_seconds=3600)
        if fits:
            got = _layer_runs(_arcs(paths, matrix), *_lanes_from_the_depot(30), matrix)
            assert got.tolist() == [_finish(path.tolist(), 0, 0, matrix) for path in paths]
        else:
            with pytest.raises(InputError, match="too large to price exactly"):
                _layer_runs(_arcs(paths, matrix), *_lanes_from_the_depot(30), matrix)
    # as many of those tours as fit below 2**63, the longest first: the last
    # row sits just under the limit and is priced exactly
    tops = times[:, paths[:, :-1], paths[:, 1:]].sum(axis=2).max(axis=0)
    paths = paths[np.argsort(-tops, kind="stable")]
    fit = (2**63 - 1) // (2 * int(tops.max()) + 2)
    assert 1 < fit < 30
    got = _layer_runs(_arcs(paths[:fit], matrix), *_lanes_from_the_depot(fit), matrix)
    assert got.tolist() == [_finish(path.tolist(), 0, 0, matrix) for path in paths[:fit]]
    with pytest.raises(InputError, match="too large to price exactly"):
        _layer_runs(_arcs(paths[: fit + 1], matrix), *_lanes_from_the_depot(fit + 1), matrix)


def test_layer_runs_on_a_horizon_far_past_the_tours():
    # 48 layers x 1,800 s; a tour of 21 arcs spans about 15 of them. Lanes
    # from every slot of every tour, at 0 s and at the tours' own clocks,
    # reach the depot many layers apart
    rng = np.random.default_rng(48)
    times = zero_diagonal(rng.integers(600, 1900, size=(48, 21, 21)))
    matrix = MultiLayerMatrix(times=times, step_seconds=1800)
    paths = np.array([[0, *rng.permutation(np.arange(1, 21)), 0] for _ in range(3)])
    tour, pos = np.meshgrid(np.arange(3), np.arange(22), indexing="ij")
    clocks = [[*departures, total] for departures, total in (_naive(p[1:-1], matrix) for p in paths)]
    for k in (np.zeros(tour.shape, dtype=np.int64), np.array(clocks, dtype=np.int64)):
        expected = [
            [_finish(paths[t].tolist(), p, int(k[t, p]), matrix) for p in range(22)]
            for t in range(3)
        ]
        assert max(map(max, expected)) < 30 * 1800
        assert _layer_runs(_arcs(paths, matrix), k, tour, pos, matrix).tolist() == expected
    # inserting into complete tours: no node left, so no lane
    none = np.zeros((22, 3, 0), dtype=np.int64)
    got = _layer_runs(_arcs(paths, matrix), none, tour.T[:, :, None], pos.T[:, :, None], matrix)
    assert got.shape == (22, 3, 0)


# lanes (tour, position, start) on two 9-client tours of 6 layers x 600 s;
# each tour takes about 3,200 s, so a lane from position 0 at 0 s crosses 5 layers
LIVE_LANES = {
    # each lane starts before the one listed ahead of it: no pass may skip any
    "latest start first": [(i % 2, i % 10, 3300 - 280 * i) for i in range(12)],
    "starting in the last layer": [(0, 0, 0), (1, 3, 700), (0, 2, 3000), (1, 0, 3599),
                                   (0, 5, 10**6)],
    "all in the last layer": [(1, 0, 3000), (0, 4, 4000), (1, 9, 3000)],
    # position 10 is the depot: a lane there keeps its start, whatever it is
    "already at the depot": [(0, 10, 0), (1, 4, 500), (1, 10, 50), (0, 0, 0), (0, 10, 5000),
                             (1, 10, 1300)],
    "one per layer": [(r % 2, r, 600 * r + 17) for r in range(6)],
}


@pytest.mark.parametrize("case", LIVE_LANES)
def test_layer_runs_skip_only_lanes_that_start_past_the_layer(case):
    rng = np.random.default_rng(26)
    matrix = MultiLayerMatrix(times=random_layers(rng, 10, 6, 200, 500), step_seconds=600)
    paths = np.array([[0, *rng.permutation(np.arange(1, 10)), 0] for _ in range(2)])
    tour, pos, k = (np.array(column) for column in zip(*LIVE_LANES[case]))
    expected = [_finish(paths[t].tolist(), p, start, matrix) for t, p, start in LIVE_LANES[case]]
    assert _layer_runs(_arcs(paths, matrix), k, tour, pos, matrix).tolist() == expected
    if case == "latest start first":  # lanes from the first layer to the last
        assert max(expected) > 5 * 600 and min(start for _, _, start in LIVE_LANES[case]) < 600


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
    # the two edits of every tour state, construction's and improvement's, in
    # any interleaving, the empty tour included; each leaves the reference clock
    matrix = data.draw(matrices())
    path, clock = _state(data.draw(tours(matrix)), matrix)
    for _ in range(data.draw(st.integers(1, 12))):
        free = sorted(set(range(1, matrix.n_nodes)) - set(path))
        if free and (len(path) == 2 or data.draw(st.booleans())):
            node = data.draw(st.sampled_from(free))
            _insert(path, clock, data.draw(st.integers(0, len(path) - 2)), node, matrix)
        else:
            _delete(path, clock, data.draw(st.integers(1, len(path) - 2)), matrix)
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
    # the rejoin drives the arc 0->0, which takes 0 s: it saves the whole cost
    matrix = data.draw(matrices())
    clients = data.draw(st.lists(st.integers(1, matrix.n_nodes - 1), min_size=1, max_size=4))
    states = [_state((node,), matrix) for node in clients]
    savings = _deletion_savings([p for p, _ in states], [c for _, c in states], matrix)
    assert savings.shape == (1, len(clients))
    assert _exact(savings[0]) == _exact([clock[-1] for _, clock in states])


def _priced(way, price):
    """What `price()` returns with every move priced the way `way` names
    ("walk", "runs" or, for a construction step, "bounds"), whatever the
    rule (`grasp._way`) would pick."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grasp, "_way", lambda *_: way)
        return price()


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
        runs, walk = _priced("runs", price), _priced("walk", price)
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


# --- bounded construction pricing and keyed ranking -------------------------


@st.composite
def bounded_matrices(draw, max_nodes=9):
    """An integer matrix for the bounds: 1-8 layers, some of them copies of
    another (ties between layers), some arcs of 0 s, and steps short enough
    that many departures fall past the horizon."""
    n = draw(st.integers(2, max_nodes))
    n_layers = draw(st.integers(1, 8))
    step = draw(st.sampled_from([1, 7, 150, 900, 3600]))
    high = draw(st.sampled_from([1, 3, 40, 2000]))  # 1: every arc takes 0 s
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.integers(0, high, size=(n_layers, n, n))
    times[rng.random(times.shape) < draw(st.sampled_from([0, 0.3]))] = 0
    zero_diagonal(times)
    for s in range(1, n_layers):
        if rng.random() < 0.3:
            times[s] = times[rng.integers(0, s)]
    return MultiLayerMatrix(times=times, step_seconds=step)


def _arc_range(matrix):
    layers = matrix.times.reshape(matrix.n_layers, -1)
    return layers.min(axis=0), layers.max(axis=0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bounded_pricing_keeps_the_first_ranks_of_full_pricing(data):
    # a construction step by layer runs, priced in full and priced only
    # where a candidate can be among trial t's first keep[t] ranks
    matrix = data.draw(bounded_matrices())
    clients = list(range(1, matrix.n_nodes))
    size = data.draw(st.integers(0, len(clients) - 1))
    orders = [
        tuple(data.draw(st.permutations(clients))[:size])
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    states = [_state(order, matrix) for order in orders]
    paths, clocks = [p for p, _ in states], [c for _, c in states]
    free = [sorted(set(clients) - set(order)) for order in orders]
    candidates = (size + 1) * len(free[0])
    keep = [data.draw(st.integers(1, min(5, candidates))) for _ in orders]
    bound = (*_arc_range(matrix), np.array(keep) - 1)
    full = _priced("runs", lambda: _insertion_deltas(paths, clocks, free, matrix))
    bounded = _priced("bounds", lambda: _insertion_deltas(paths, clocks, free, matrix, bound))
    assert (bounded <= full).all()  # a pruned candidate holds a lower bound
    for t, first in enumerate(keep):
        ranks = enumerate_insertions(full[:, t])[:first]
        assert enumerate_insertions(bounded[:, t])[:first].tolist() == ranks.tolist()
        assert bounded[:, t].T.ravel()[ranks].tolist() == full[:, t].T.ravel()[ranks].tolist()


@settings(max_examples=150, deadline=None)
@given(
    matrix=bounded_matrices(max_nodes=61),
    k_grasp=st.integers(1, 5),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_bounded_construction_matches_full_pricing(matrix, k_grasp, trials, seed):
    # 1-60 clients, every step bounded and the lanes kept run, against every
    # step walked in full
    built = []
    for way in ("walk", "bounds"):
        rng = np.random.default_rng(seed)
        paths, clocks = _priced(way, lambda: construct_route(matrix, k_grasp, rng, trials))
        built.append((paths, _exact(np.concatenate(clocks)), rng.bit_generator.state))
    assert built[0] == built[1]


@st.composite
def integer_grids(draw):
    """An (slots x columns) int64 grid: ties, negative deltas, and values
    whose keys would pass 2**63 - 1."""
    slots, columns = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    reach = draw(st.sampled_from([2, 2**40, 2**62, 2**63 - 1]))
    values = st.integers(-reach, reach)
    row = st.lists(values, min_size=columns, max_size=columns)
    return np.array(draw(st.lists(row, min_size=slots, max_size=slots)), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(grid=integer_grids())
@example(grid=np.array([[0, 2**62 - 1]]))  # the largest key is 2**63 - 1: still keyed
@example(grid=np.array([[0, 2**62]]))  # a key would be 2**63: the stable sort
@example(grid=np.array([[-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)]]))
@example(grid=np.array([[5, -3, 5], [-3, 5, -3]]))
def test_keyed_ranking_matches_the_stable_sort(grid):
    stable = np.argsort(grid.T.ravel(), kind="stable")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grasp, "KEYED_RANKING", 0)  # keys even for the smallest grid
        assert enumerate_insertions(grid).tolist() == stable.tolist()


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
    replaying the batch schedule: one round at first, as many after an
    acceptance, twice as many after a batch that accepts none, at most
    MAX_BATCH."""
    costs = [start_cost, *trace]
    accepted = [costs[r + 1] < costs[r] for r in range(len(trace))]
    places, r, batch = [], 0, 1
    while r < len(trace):
        rounds = accepted[r : r + batch]
        if True in rounds:
            won = rounds.index(True)
            places.append((won, len(rounds)))
            r += won + 1
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
    layers = matrix.times.tolist()
    best = min(
        permutations(range(1, matrix.n_nodes)),
        key=lambda perm: naive_departures(list(perm), layers, matrix.step_seconds)[1],
    )
    return best, _naive(best, matrix)


def _nine_nodes(n_layers, step, high, fractional, seed):
    times = zero_diagonal(np.random.default_rng(seed).integers(0, high, size=(n_layers, 9, 9)))
    return MultiLayerMatrix(times=times / 3.0 if fractional else times, step_seconds=step)


def _tied(n, seed, average):
    """Entries of 1-3 s, so that many tours tie, made fractional: averaged
    over 3 layers x 900 s, or tenths of a second on 2 layers x 150 s. On
    these a search that prunes with no margin loses the first optimum, or
    every tour, to sums of bounds that round past the arcs they bound."""
    shape = (3 if average else 2, n, n)
    times = zero_diagonal(np.random.default_rng(seed).integers(1, 4, size=shape))
    if average:
        return average_matrix(MultiLayerMatrix(times=times, step_seconds=900))
    return MultiLayerMatrix(times=times / 10.0, step_seconds=150)


@settings(max_examples=5, deadline=None)
@given(matrix=matrices(min_nodes=9, max_nodes=9))
@example(matrix=_nine_nodes(3, 900, 4, False, 1))  # ties everywhere
@example(matrix=_nine_nodes(2, 150, 2000, True, 2))  # fractional
@example(matrix=_nine_nodes(1, 3600, 2000, False, 3))  # one layer
@example(matrix=_nine_nodes(4, 1, 2000, False, 4))  # every departure past the horizon
@example(matrix=_tied(9, 8, average=False))  # fractional ties
def test_oracle_across_blocks_matches_plain_scan(matrix):
    # 8 clients: the bound prunes at every level above the last three clients
    route, sched = brute_force_optimum(grid_instance(9), matrix)
    order, (departures, total) = _plain_scan(matrix)
    assert route.order == order
    assert _exact(sched.departures) == _exact(departures)
    assert _exact([sched.total_cost]) == _exact([total])


@settings(max_examples=40, deadline=None)
@given(matrix=matrices(max_nodes=8))
@example(matrix=_tied(7, 10, average=False))  # fractional ties
@example(matrix=_tied(6, 4, average=False))
@example(matrix=_tied(7, 84, average=True))  # averaged ties
@example(matrix=_tied(6, 1, average=True))
def test_oracle_matches_plain_scan(matrix):
    route, sched = brute_force_optimum(grid_instance(matrix.n_nodes), matrix)
    order, (departures, total) = _plain_scan(matrix)
    assert route.order == order
    assert _exact(sched.departures) == _exact(departures)
    assert _exact([sched.total_cost]) == _exact([total])


def test_oracle_spanning_several_blocks_matches_plain_scan():
    # 8 clients, integer and averaged
    rng = np.random.default_rng(5)
    times = random_layers(rng, 9, 3, 50, 900)
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


@pytest.mark.parametrize("chunk", [1, 5])
def test_a_tiny_chunk_gives_the_same_tours(monkeypatch, chunk):
    # each level hands its states down CHUNK at a time, in lexicographic order
    cases = [_tied(7, 10, average=False), _tied(7, 84, average=True),
             _nine_nodes(3, 900, 4, False, 1), constant_matrix(8, 500, 2, step_seconds=900)]
    found = [brute_force_optimum(grid_instance(m.n_nodes), m) for m in cases]
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    assert [brute_force_optimum(grid_instance(m.n_nodes), m) for m in cases] == found
