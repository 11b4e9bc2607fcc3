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


def _insertion_deltas(order, nodes, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost change of inserting each of `nodes` at each slot of `order`, as
    a (slots x nodes) grid.

    Lane (p, node) leaves the node before slot p at the tour's p-th
    departure, drives to `node` and then walks order[p:] back to the depot.
    """
    sched = _order_schedule(order, matrix)
    nodes = np.asarray(nodes, dtype=np.intp)
    tail = np.array([*order, 0], dtype=np.intp)
    prev = np.array([0, *order], dtype=np.intp)
    slots = len(tail)
    k = np.repeat(
        np.array(sched.departures, dtype=matrix.times.dtype)[:, None], len(nodes), axis=1
    )
    steps = chain(
        [np.broadcast_to(nodes, (slots, len(nodes)))],
        (tail[j:, None] for j in range(slots)),
    )
    return _advance(k, prev[:, None], steps, matrix) - sched.total_cost


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


def enumerate_insertions(partial, remaining, matrix: MultiLayerMatrix) -> np.recarray:
    """All (node, slot) insertions of `remaining` into the partial tour,
    sorted by cost delta, ties broken by (node, position).

    One record per candidate, with fields `node`, `position` and
    `delta_cost`.
    """
    order = tuple(partial.order if isinstance(partial, Route) else partial)
    nodes = sorted(remaining)
    if set(nodes) & set(order):
        raise InputError("remaining nodes overlap the partial route")
    slots = len(order) + 1
    # node-major, so a stable sort breaks delta ties by (node, position)
    deltas = _insertion_deltas(order, nodes, matrix).T.ravel()
    ranked = np.argsort(deltas, kind="stable")
    candidates = np.empty(
        len(ranked),
        dtype=[("node", np.intp), ("position", np.intp), ("delta_cost", deltas.dtype)],
    )
    candidates["node"] = np.array(nodes, dtype=np.intp)[ranked // slots]
    candidates["position"] = ranked % slots
    candidates["delta_cost"] = deltas[ranked]
    return candidates.view(np.recarray)


def construct_route(matrix: MultiLayerMatrix, k_grasp: int, rng) -> Route:
    """Grow one tour from empty, drawing each insertion uniformly from the
    k_grasp cheapest candidates."""
    if k_grasp < 1:
        raise InputError(f"k_grasp must be >= 1, got {k_grasp}")
    order: tuple[int, ...] = ()
    remaining = set(range(1, matrix.n_nodes))
    while remaining:
        candidates = enumerate_insertions(order, remaining, matrix)
        pick = candidates[int(rng.integers(0, min(k_grasp, len(candidates))))]
        node, position = int(pick.node), int(pick.position)
        order = order[:position] + (node,) + order[position:]
        remaining.discard(node)
    return Route(order)


def run_grasp(matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Construction phase: n_grasp randomized tours, best one kept.

    The cost trace lists every trial's cost in trial order.
    """
    trace = []
    best_order = None
    best_cost = None
    for _ in range(params.n_grasp):
        order = construct_route(matrix, params.k_grasp, rng).order
        cost = _order_schedule(order, matrix).total_cost
        trace.append(cost)
        if best_cost is None or cost < best_cost:
            best_order, best_cost = order, cost
    return _result(best_order, trace, matrix, params)


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
            deltas = _insertion_deltas(current, [node], matrix)[:, 0]
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
    result; only changing the seed can change it.
    """
    if matrix.n_nodes != instance.n_nodes:
        raise InputError(
            f"matrix covers {matrix.n_nodes} nodes but instance has {instance.n_nodes}"
        )
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
