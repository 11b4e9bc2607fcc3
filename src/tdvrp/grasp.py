"""Randomized greedy construction plus insertion-deletion improvement.

Construction builds n_grasp tours by repeatedly inserting a not-yet-routed
client at one of the k_grasp cheapest (node, slot) candidates, drawn
uniformly; the best tour is kept. Improvement then runs n_improve rounds:
delete l_delete nodes one at a time (each drawn from the k_del largest
cost savings, savings recomputed after every deletion), reinsert them
first-deleted-first-reinserted at one of their k_ins cheapest slots, and keep
the round's result only if it beats the best tour so far.

Every candidate is priced on the whole tour it would make: in a
time-dependent matrix an insertion or deletion shifts all downstream
departure times, so local two-arc arithmetic would be wrong. A move at slot p
leaves departures 0..p unchanged, though, so each candidate starts from the
cached departure of its slot and only re-walks the rest of the tour, and all
candidates of one move advance together, one array step per arc
(`model._advance`).

The n_grasp construction trials grow in lockstep: after m insertions every
trial has m clients placed and the same number left, so one walk prices the
insertion grids of all trials at once, and `enumerate_insertions` then ranks
each trial's grid on its own. Step m always offers
(m + 1) * (clients - m) candidates, whatever was picked before, so every
pick is drawn up front, one scalar `rng.integers` call per pick in the order
the trials would draw them one after another; the stream, and the state
improvement continues from, match a trial-by-trial build.

All randomness comes from one numpy PCG64 stream seeded once per solve, and
every candidate list is sorted with deterministic tie-breaks, so results are
reproducible bit-for-bit for a given seed. With k_grasp=k_del=k_ins=1 the
search degenerates to pure greedy and the seed does not matter at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import InputError, InvariantError
from .model import (
    Instance,
    MultiLayerMatrix,
    Route,
    Schedule,
    SolverParams,
    _advance,
    _arrivals,
    _order_schedule,
)

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class SolveResult:
    best_route: Route
    best_schedule: Schedule
    cost_trace: tuple
    params: SolverParams
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


def _result(order, trace, matrix: MultiLayerMatrix, params: SolverParams) -> SolveResult:
    route = Route(order)
    return SolveResult(
        best_route=route,
        best_schedule=_order_schedule(route.order, matrix),
        cost_trace=tuple(trace),
        params=params,
        seed=params.seed,
    )


def _insertion_deltas(paths, clock, nodes, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost change of inserting each trial's `nodes` at each slot of its
    tour, as a (slots x trials x nodes) grid.

    Row t of `paths` is tour t closed at both ends, (0, *order, 0); row t of
    `clock` holds its departures followed by its cost, and row t of `nodes`
    the clients it may take. Every tour has the same length. Lane (p, t, j)
    leaves paths[t, p] at clock[t, p], drives to nodes[t, j] and then walks
    paths[t, p + 1:] back to the depot.
    """
    slots = paths.shape[1] - 1
    k = np.repeat(clock[:, :-1].T[:, :, None], nodes.shape[1], axis=2)
    tail = paths[:, 1:].T[:, :, None]
    steps = chain(
        [np.broadcast_to(nodes, (slots, *nodes.shape))],
        (tail[j:] for j in range(slots)),
    )
    return _advance(k, paths[:, :-1].T[:, :, None], steps, matrix) - clock[:, -1, None]


def _tour_deltas(order, nodes, matrix: MultiLayerMatrix) -> np.ndarray:
    """`_insertion_deltas` of a single tour, as a (slots x nodes) grid."""
    sched = _order_schedule(order, matrix)
    paths = np.array([[0, *order, 0]], dtype=np.intp)
    clock = np.array([[*sched.departures, sched.total_cost]], dtype=matrix.times.dtype)
    return _insertion_deltas(paths, clock, np.array([nodes], dtype=np.intp), matrix)[:, 0]


def _deletion_savings(order, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost saved by deleting each client of `order`.

    Lane idx leaves the node before order[idx] at the tour's idx-th
    departure and walks order[idx + 1:] back to the depot.
    """
    sched = _order_schedule(order, matrix)
    if len(order) == 1:
        # the tour left is empty and costs 0; there is no arc to walk
        return np.array([sched.total_cost])
    k = np.array(sched.departures[:-1], dtype=matrix.times.dtype)
    cur = np.array([0, *order[:-1]], dtype=np.intp)
    tail = np.array([*order[1:], 0], dtype=np.intp)
    steps = (tail[j:] for j in range(len(tail)))
    return sched.total_cost - _advance(k, cur, steps, matrix)


def enumerate_insertions(partial, remaining, matrix: MultiLayerMatrix, deltas=None) -> np.recarray:
    """All (node, slot) insertions of `remaining` into the partial tour,
    sorted by cost delta, ties broken by (node, position).

    One record per candidate, with fields `node`, `position` and
    `delta_cost`. `deltas`, when given, is the (slots x nodes) grid of these
    insertions already priced by `_insertion_deltas`, nodes in sorted order,
    and is only ranked: construction prices all its trials in one walk and
    ranks each trial's grid here.
    """
    order = tuple(partial.order if isinstance(partial, Route) else partial)
    nodes = sorted(remaining)
    if set(nodes) & set(order):
        raise InputError("remaining nodes overlap the partial route")
    slots = len(order) + 1
    if deltas is None:
        deltas = _tour_deltas(order, nodes, matrix)
    # node-major, so a stable sort breaks delta ties by (node, position)
    deltas = deltas.T.ravel()
    ranked = np.argsort(deltas, kind="stable")
    candidates = np.empty(
        len(ranked),
        dtype=[("node", np.intp), ("position", np.intp), ("delta_cost", deltas.dtype)],
    )
    candidates["node"] = np.array(nodes, dtype=np.intp)[ranked // slots]
    candidates["position"] = ranked % slots
    candidates["delta_cost"] = deltas[ranked]
    return candidates.view(np.recarray)


def construct_route(matrix: MultiLayerMatrix, k_grasp: int, rng, trials=None):
    """Grow one tour from empty, drawing each insertion uniformly from the
    k_grasp cheapest candidates.

    Given `trials`, grow that many tours in lockstep (see the module
    docstring) and return the list of them, in trial order.
    """
    if k_grasp < 1:
        raise InputError(f"k_grasp must be >= 1, got {k_grasp}")
    width = 1 if trials is None else trials
    clients = matrix.n_nodes - 1
    # see the module docstring: scalar draws, in trial-by-trial order
    picks = [
        [int(rng.integers(0, min(k_grasp, (m + 1) * (clients - m)))) for m in range(clients)]
        for _ in range(width)
    ]
    # row t of `paths` is tour t closed at both ends, the first m + 2 columns
    # of row t of `clock` its departures followed by its cost, row t of
    # `remaining` its free clients
    paths = np.zeros((width, 2), dtype=np.intp)
    clock = np.zeros((width, clients + 2), dtype=matrix.times.dtype)
    remaining = np.tile(np.arange(1, clients + 1, dtype=np.intp), (width, 1))
    for m in range(clients):
        deltas = _insertion_deltas(paths, clock[:, : m + 2], remaining, matrix)
        # each trial's (node, position, delta) record at its drawn rank
        picked = [
            enumerate_insertions(path[1:-1], free, matrix, deltas[:, t]).item(pick[m])
            for t, (path, free, pick) in enumerate(zip(paths.tolist(), remaining.tolist(), picks))
        ]
        node, pos = np.array([c[:2] for c in picked], dtype=np.intp).T
        remaining = remaining[remaining != node[:, None]].reshape(width, -1)
        # the picked node lands in column pos + 1 of each path; the old
        # entries fill the other columns in order
        keep = np.arange(m + 3) != pos[:, None] + 1
        grown = np.empty((width, m + 3), dtype=np.intp)
        grown[keep] = paths.ravel()
        grown[~keep] = node
        paths = grown
        # departures up to each tour's insertion slot are unchanged, so each
        # tour is re-walked from its own slot
        for row, path, p in zip(clock, paths.tolist(), pos.tolist()):
            row[p + 1 : m + 3] = _arrivals(row.item(p), path[p], path[p + 1 :], matrix)
    routes = [Route(path[1:-1]) for path in paths.tolist()]
    return routes[0] if trials is None else routes


def run_grasp(matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Construction phase: n_grasp randomized tours, best one kept.

    The cost trace lists every trial's cost in trial order.
    """
    routes = construct_route(matrix, params.k_grasp, rng, trials=params.n_grasp)
    trace = [_order_schedule(route.order, matrix).total_cost for route in routes]
    # the first of the cheapest tours
    best = min(range(len(trace)), key=trace.__getitem__)
    return _result(routes[best].order, trace, matrix, params)


def improve(route, matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Insertion-deletion improvement, n_improve rounds from the best-so-far.

    A round that does not beat the incumbent is discarded; the trace records
    the best cost after each round, so it is non-increasing.
    """
    best = tuple(route.order if isinstance(route, Route) else route)
    if set(best) != set(range(1, matrix.n_nodes)):
        raise InputError("improvement needs a complete route over all clients")
    if params.l_delete > len(best):
        raise InputError(
            f"l_delete={params.l_delete} exceeds the {len(best)} clients in the route"
        )
    best_cost = _order_schedule(best, matrix).total_cost
    trace = []
    for _ in range(params.n_improve):
        current = list(best)
        deleted = []
        for _ in range(params.l_delete):
            savings = _deletion_savings(current, matrix)
            pool = np.lexsort((current, -savings))[: params.k_del]
            deleted.append(current.pop(int(pool[int(rng.integers(0, len(pool)))])))
        for node in deleted:
            deltas = _tour_deltas(current, [node], matrix)[:, 0]
            pool = np.argsort(deltas, kind="stable")[: params.k_ins]
            current.insert(int(pool[int(rng.integers(0, len(pool)))]), node)
        cost = _order_schedule(current, matrix).total_cost
        if cost < best_cost:
            best, best_cost = tuple(current), cost
        trace.append(best_cost)
    return _result(best, trace, matrix, params)


def solve(instance: Instance, matrix: MultiLayerMatrix, params: SolverParams) -> SolveResult:
    """Full pipeline: seed one RNG stream, construct, then improve.

    A fixed (instance, matrix, params) triple reproduces the exact same
    result; only changing the seed can change it. l_delete is clamped to the
    client count, and the result's params record the value used.
    """
    if matrix.n_nodes != instance.n_nodes:
        raise InputError(
            f"matrix covers {matrix.n_nodes} nodes but instance has {instance.n_nodes}"
        )
    params = replace(params, l_delete=min(params.l_delete, matrix.n_nodes - 1))
    rng = np.random.default_rng(params.seed)
    constructed = run_grasp(matrix, params, rng)
    improved = improve(constructed.best_route, matrix, params, rng)
    if not improved.best_route.is_complete(matrix.n_nodes):
        raise InvariantError(
            f"route {list(improved.best_route.order)} is not a permutation of "
            f"clients 1..{matrix.n_nodes - 1}"
        )
    return replace(improved, cost_trace=constructed.cost_trace + improved.cost_trace)


def result_to_json(result: SolveResult) -> str:
    """Canonical JSON for a solve result (integer seconds)."""
    p = result.params
    doc = {
        "route": [int(v) for v in result.best_route.order],
        "departures_s": [int(round(v)) for v in result.best_schedule.departures],
        "total_cost_s": int(round(result.best_schedule.total_cost)),
        "cost_trace_s": [int(round(v)) for v in result.cost_trace],
        "seed": int(result.seed),
        "rng": result.rng_algorithm,
        "params": {
            "n_grasp": p.n_grasp,
            "k_grasp": p.k_grasp,
            "n_improve": p.n_improve,
            "l_delete": p.l_delete,
            "k_del": p.k_del,
            "k_ins": p.k_ins,
        },
    }
    return json.dumps(doc)


def result_from_json(text: str) -> dict:
    """Parse a result file back into a plain dict (route, departures, costs)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"result is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict) or "route" not in doc:
        raise InputError("result document must be a JSON object with a 'route' field")
    return doc
