"""Randomized greedy construction plus insertion-deletion improvement.

Construction builds n_grasp tours by repeatedly inserting a not-yet-routed
client at one of the k_grasp cheapest (node, slot) candidates, drawn
uniformly; the best tour is kept. Improvement then runs n_improve rounds:
delete l_delete nodes one at a time (each drawn from the k_del largest
cost savings, savings recomputed after every deletion), reinsert them
first-deleted-first-reinserted at one of their k_ins cheapest slots, and keep
the round's result only if it beats the best tour so far.

Both phases keep a tour as one state: the closed path [0, *order, 0] and its
clock, a list in which clock[j] is the time at path[j] and clock[-1] the
tour's cost. Two edits change it, `_insert` and `_delete`; a move at slot p
leaves the clock up to p unchanged, so each edit re-times the tour only from
the edited slot on, with the scalar walk `model._arrivals`.

Every candidate is priced on the whole tour it would make: in a
time-dependent matrix an insertion or deletion shifts all downstream
departure times, so local two-arc arithmetic would be wrong. One rejoin walk
(`_rejoin`) prices both: each candidate leaves the kept clock at its slot,
drives its detour (into and out of the new node, or past the deleted one)
and re-walks only the rest of the tour. All candidates of one move advance
together: one array step per arc (`model._advance`), or, on an integer
matrix, one step per layer run (`_layer_runs`). The walk names every arc by
its flat index origin * n + destination, so an arc step is one `take` from
the flattened layers; on a one-layer matrix, such as the averaged baseline,
a step skips the layer lookup. Within one layer a tour's arc times are
fixed, so a prefix sum per layer of each priced tour carries a candidate
across every arc it leaves within its current layer at once; each step takes
it to a later layer or to the depot. Integer sums are exact, so both give the
same bits; `_rejoin` alone asks a cost model (`_by_layer_runs`) which is
cheaper. Float matrices are always walked arc by arc: prefix sums would
change the order of float additions. Prefix sums are monotone:
MultiLayerMatrix refuses negative times.

The n_grasp construction trials grow in lockstep: after m insertions every
trial has m clients placed and the same number left, so one walk prices the
insertion grids of all trials at once, and `enumerate_insertions` then ranks
each trial's grid on its own. Step m always offers
(m + 1) * (clients - m) candidates, whatever was picked before, so every
pick is drawn up front, one scalar `rng.integers` call per pick in the order
the trials would draw them one after another; the stream, and the state
improvement continues from, match a trial-by-trial build.

Improvement rounds run in speculative batches. Most rounds do not beat the
incumbent, and a round's draws do not depend on its tour: deletion d offers
min(k_del, clients - d) picks and reinsertion e min(k_ins, slots), whatever
was deleted. So every draw is made up front, in round-by-round order, and a
batch of up to MAX_BATCH rounds then runs from the same incumbent in
lockstep, one walk per move for all of them (the first deletion, on the
shared incumbent, is priced once). The first round of the batch that beats
the incumbent is kept and the rounds after it are dropped; the next batch
starts at the round after the kept one, with its draws unchanged. A batch
is one round after an acceptance and doubles after a batch that keeps
none. Tours, traces and the generator state match a round-by-round search.

All randomness comes from one numpy PCG64 stream seeded once per solve, and
every candidate list is sorted with deterministic tie-breaks, so results are
reproducible bit-for-bit for a given seed. With k_grasp=k_del=k_ins=1 the
search degenerates to pure greedy and the seed does not matter at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cache
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
    _expect,
    _order_schedule,
    _parse_json,
)

RNG_ALGORITHM = "numpy-pcg64"
# at most this many improvement rounds run from one incumbent in one batch
MAX_BATCH = 8


@dataclass(frozen=True)
class SolveResult:
    best_route: Route
    best_schedule: Schedule
    cost_trace: tuple
    params: SolverParams


def _result(order, schedule: Schedule, trace, params: SolverParams) -> SolveResult:
    return SolveResult(
        best_route=Route(order),
        best_schedule=schedule,
        cost_trace=tuple(trace),
        params=params,
    )


def _insert(path, clock, p, node, matrix: MultiLayerMatrix) -> None:
    """Put `node` into slot p of the tour, between path[p] and path[p + 1],
    and re-time the tour from that slot on."""
    path.insert(p + 1, node)
    clock[p + 1 :] = _arrivals(clock[p], path[p], path[p + 1 :], matrix)


def _delete(path, clock, i, matrix: MultiLayerMatrix) -> None:
    """Take the client path[i] out of the tour and re-time the tour from the
    slot it leaves."""
    del path[i]
    # the empty tour [0, 0] has no arc to walk and costs 0
    clock[i:] = _arrivals(clock[i - 1], path[i - 1], path[i:], matrix) if len(path) > 2 else [0]


def _insertion_deltas(paths, clock, nodes, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost change of inserting each trial's `nodes` at each slot of its
    tour, as a (slots x trials x nodes) grid.

    Row t of `paths` and `clock` is the tour state of trial t, and row t of
    `nodes` the clients it may take. Every tour has the same length. Lane
    (p, t, j) leaves paths[t][p], visits nodes[t][j] and rejoins at paths[t][p + 1].
    """
    paths = np.asarray(paths, dtype=np.intp)
    clock = np.asarray(clock, dtype=matrix.times.dtype)
    nodes = np.asarray(nodes, dtype=np.intp)
    # the arcs into and out of each new node, as flat indices
    into = paths[:, :-1].T[:, :, None] * matrix.n_nodes + nodes
    out = nodes * matrix.n_nodes + paths[:, 1:].T[:, :, None]
    return _rejoin(paths, clock, [into, out], 1, matrix) - clock[:, -1, None]


def _deletion_savings(paths, clock, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost saved by deleting each client of each trial's tour, as a (clients x trials) grid.

    Row t of `paths` and `clock` is the tour state of trial t. Every tour has
    the same length. Lane (i, t) leaves paths[t][i] and rejoins at paths[t][i + 2].
    """
    paths = np.asarray(paths, dtype=np.intp)
    clock = np.asarray(clock, dtype=matrix.times.dtype)
    if paths.shape[1] == 3:
        # each tour left is empty and costs 0; there is no arc to walk
        return clock[:, -1:].T
    # the arc that skips each client, lane-major: the walk reads contiguous arrays faster
    skip = (paths[:, :-2] * matrix.n_nodes + paths[:, 2:]).T.copy()[:, :, None]
    return clock[:, -1] - _rejoin(paths, clock, [skip], 2, matrix)[:, :, 0]


def _rejoin(paths, clock, detour, first, matrix: MultiLayerMatrix) -> np.ndarray:
    """Depot arrival times of lanes that leave their tour, take a detour and rejoin it.

    Lane (i, t, j) leaves paths[t][i] at clock[t][i], drives one arc from each
    (size - first, trials, j) array of flat indices in `detour`, then drives
    tour t from position i + first back to the depot, by layer runs or by the
    arc walk, whichever `_by_layer_runs` picks.
    """
    trials, size = paths.shape
    k = np.repeat(clock.T[: size - first, :, None], detour[0].shape[2], axis=2)
    # lane 0 drives the most arcs: the detour, then the tour from position first
    if _by_layer_runs(len(detour) + size - 1 - first, k.size, clock, matrix):
        _advance(k, detour, matrix)
        pos = np.arange(first, size)[:, None, None]
        return _layer_runs(paths, k, np.arange(trials)[:, None], pos, matrix)
    # the tour's own arcs, position-major: lane i takes own[i + first + j] at walk step j
    own = (paths[:, :-1] * matrix.n_nodes + paths[:, 1:]).T.copy()[:, :, None]
    walk = (own[first + j :] for j in range(size - 1 - first))
    return _advance(k, chain(detour, walk), matrix)


def _by_layer_runs(arcs, lanes, clock, matrix: MultiLayerMatrix) -> bool:
    """Whether a move is priced by `_layer_runs` rather than `_advance`: its
    `lanes` lanes walk up to `arcs` arcs, on tours whose times are `clock`.

    Only integer matrices qualify: prefix sums would change the order of
    float additions. Otherwise the one a cost model says is cheaper, in µs,
    fitted to both on tours of 8-200 clients and 1-30 trials (2 vCPUs): an
    arc step of the walk costs about 6 µs and 2.5 ns a lane (on average half
    the lanes still move), and a run step 12 µs and 33 ns a lane, after
    40 µs of set-up. A lane takes one run step per layer its tour reaches,
    plus one for a layer the move's detour reaches.
    """
    if matrix.times.dtype != np.int64:
        return False
    steps = min(matrix.n_layers, int(clock.max()) // matrix.step_seconds + 2)
    return 40 + steps * (12 + lanes / 30) < arcs * (6 + lanes / 400)


def _layer_runs(paths, k, tour, pos, matrix: MultiLayerMatrix) -> np.ndarray:
    """Depot arrival times of lanes that follow their tour's own arcs.

    Lane r stands at paths[tour[r]][pos[r]] at time k[r] (`tour` and `pos`
    broadcast to the shape of `k`) and drives the rest of that tour, every arc
    priced on the layer of its own departure. Within one layer a tour's arc
    times are fixed, so prefix[t, s, x], the layer-s time of the first x arcs
    of tour t, prices a whole run of same-layer arcs in one step: a lane in
    layer s at position i drives on to the first position y whose departure,
    k + prefix[t, s, y] - prefix[t, s, i], falls past the layer's end (one
    `searchsorted`), or to the depot; in the last layer it always drives to
    the depot. Each step takes every lane to a later layer or to the depot,
    so at most one step per layer. Arc times are integers, and >= 0 in every
    MultiLayerMatrix; the sums are exact, equal to the scalar walk's bit for bit.
    """
    times, step = matrix.times, matrix.step_seconds
    layers = matrix.n_layers
    trials, size = paths.shape
    prefix = np.zeros((trials, layers, size), dtype=np.int64)
    own = paths[:, :-1] * matrix.n_nodes + paths[:, 1:]
    arcs = times.reshape(layers, -1)[:, own]  # (layers, trials, arcs)
    np.cumsum(arcs.transpose(1, 0, 2), axis=2, out=prefix[:, :, 1:])
    # rows laid end to end, each past the one before by more than any
    # threshold reaches, so one searchsorted serves every (tour, layer) row
    top = int(prefix[:, :, -1].max())
    width = 2 * top + 2
    if trials * layers * width >= 2**63:
        raise InputError(
            f"travel times too large to price exactly: {trials} tours x {layers} layers "
            f"x {width} s overflows 64-bit seconds"
        )
    prefix += np.arange(0, trials * layers * width, width).reshape(trials, layers, 1)
    flat = prefix.ravel()
    # a lane's layer ends at ends[s]; past the last, never (a lane there
    # needs at most `top` more seconds, so its budget is capped at top + 1)
    ends = np.arange(1, layers + 1, dtype=np.int64) * step
    ends[-1] = np.iinfo(np.int64).max
    row = tour * (layers * size)  # each lane's layer-0 row, as a flat index
    at = np.empty(k.shape, dtype=np.int64)  # flat index of each lane's position
    np.add(row, pos, out=at)
    depot = at - pos
    depot += size - 1
    shape, at, depot = k.shape, at.ravel(), depot.ravel()
    k = k.astype(np.int64).ravel()
    for _ in range(layers):
        s = k // step
        np.minimum(s, layers - 1, out=s)
        budget = ends[s]
        budget -= k
        np.minimum(budget, top + 1, out=budget)
        s *= size  # from the layer-0 row to the layer-s row
        here = at + s
        start = flat[here]
        budget += start
        arrive = np.searchsorted(flat, budget)
        end = depot + s
        np.minimum(arrive, end, out=arrive)
        gain = flat[arrive]
        gain -= start
        k += gain
        if (arrive == end).all():
            break
        np.subtract(arrive, s, out=at)
    return k.reshape(shape)


def enumerate_insertions(partial, remaining, deltas) -> np.recarray:
    """All (node, slot) insertions of `remaining` into the partial tour,
    sorted by cost delta, ties broken by (node, position).

    `deltas` is the (slots x nodes) grid of these insertions priced by
    `_insertion_deltas`, nodes in sorted order. One record per candidate,
    with fields `node`, `position` and `delta_cost`.
    """
    order = tuple(partial.order if isinstance(partial, Route) else partial)
    nodes = sorted(remaining)
    if set(nodes) & set(order):
        raise InputError("remaining nodes overlap the partial route")
    slots = len(order) + 1
    # node-major, so a stable sort breaks delta ties by (node, position)
    deltas = deltas.T.ravel()
    ranked = np.argsort(deltas, kind="stable")
    candidates = np.empty(len(ranked), dtype=_candidate_record(deltas.dtype))
    candidates["node"] = np.array(nodes, dtype=np.intp)[ranked // slots]
    candidates["position"] = ranked % slots
    candidates["delta_cost"] = deltas[ranked]
    return candidates.view(np.recarray)


@cache
def _candidate_record(delta: np.dtype) -> np.dtype:
    """The record dtype of `enumerate_insertions`, built once per delta dtype."""
    return np.dtype((np.record, [("node", np.intp), ("position", np.intp), ("delta_cost", delta)]))


def construct_route(matrix: MultiLayerMatrix, k_grasp: int, rng, trials: int):
    """Grow `trials` tours from empty in lockstep (see the module docstring),
    drawing each insertion uniformly from the k_grasp cheapest candidates;
    return their (paths, clocks) in trial order.
    """
    if k_grasp < 1:
        raise InputError(f"k_grasp must be >= 1, got {k_grasp}")
    clients = matrix.n_nodes - 1
    # see the module docstring: scalar draws, in trial-by-trial order
    picks = [
        [int(rng.integers(0, min(k_grasp, (m + 1) * (clients - m)))) for m in range(clients)]
        for _ in range(trials)
    ]
    paths = [[0, 0] for _ in range(trials)]
    clocks = [[0, 0] for _ in range(trials)]
    remaining = [list(range(1, clients + 1)) for _ in range(trials)]
    for m in range(clients):
        deltas = _insertion_deltas(paths, clocks, remaining, matrix)
        for t, (path, clock, free, pick) in enumerate(zip(paths, clocks, remaining, picks)):
            # the (node, position, delta) record at the trial's drawn rank
            node, pos, _ = enumerate_insertions(path[1:-1], free, deltas[:, t]).item(pick[m])
            free.remove(node)
            _insert(path, clock, pos, node, matrix)
    return paths, clocks


def run_grasp(matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Construction phase: n_grasp randomized tours, best one kept.

    The cost trace lists every trial's cost in trial order.
    """
    paths, clocks = construct_route(matrix, params.k_grasp, rng, params.n_grasp)
    trace = [clock[-1] for clock in clocks]
    # the first of the cheapest tours
    best = min(range(len(trace)), key=trace.__getitem__)
    clock = clocks[best]
    return _result(paths[best][1:-1], Schedule(tuple(clock[:-1]), clock[-1]), trace, params)


def _speculate(path, clock, draws, params: SolverParams, matrix: MultiLayerMatrix):
    """Run one improvement round per entry of `draws`, all from the tour
    state (path, clock), in lockstep; return their (paths, clocks) in round
    order.

    A round's draws are its (deletion picks, reinsertion picks): ranks into
    the savings of each deletion and the slot deltas of each reinsertion.
    """
    paths = [list(path) for _ in draws]
    clocks = [list(clock) for _ in draws]
    deleted = [[] for _ in draws]
    # every round deletes first from the same tour: price that move once
    tours, times = [path], [clock]
    for d in range(params.l_delete):
        savings = _deletion_savings(tours, times, matrix)
        # per tour, clients by savings descending, ties by node id
        ranked = np.lexsort(([tour[1:-1] for tour in tours], -savings.T))
        ranked = np.broadcast_to(ranked, (len(draws), ranked.shape[1]))
        for r, (p, c, gone, (picks, _)) in enumerate(zip(paths, clocks, deleted, draws)):
            i = 1 + int(ranked[r, picks[d]])
            gone.append(p[i])
            _delete(p, c, i, matrix)
        tours, times = paths, clocks
    for e in range(params.l_delete):
        deltas = _insertion_deltas(paths, clocks, [[gone[e]] for gone in deleted], matrix)
        # per round, slots by delta, ties by slot
        ranked = np.argsort(deltas[:, :, 0], axis=0, kind="stable")
        for r, (p, c, gone, (_, picks)) in enumerate(zip(paths, clocks, deleted, draws)):
            _insert(p, c, int(ranked[picks[e], r]), gone[e], matrix)
    return paths, clocks


def improve(route, matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Insertion-deletion improvement, n_improve rounds from the best-so-far.

    A round that does not beat the incumbent is discarded; the trace records
    the best cost after each round, so it is non-increasing. Rounds run in
    speculative batches (see the module docstring).
    """
    order = tuple(route.order if isinstance(route, Route) else route)
    if set(order) != set(range(1, matrix.n_nodes)):
        raise InputError("improvement needs a complete route over all clients")
    clients, l_delete = len(order), params.l_delete
    if l_delete > clients:
        raise InputError(f"l_delete={l_delete} exceeds the {clients} clients in the route")
    # see the module docstring: scalar draws, in round-by-round order
    draws = [
        (
            [int(rng.integers(0, min(params.k_del, clients - d))) for d in range(l_delete)],
            [
                int(rng.integers(0, min(params.k_ins, clients - l_delete + e + 1)))
                for e in range(l_delete)
            ],
        )
        for _ in range(params.n_improve)
    ]
    schedule = _order_schedule(order, matrix)
    best_path, best_clock = [0, *order, 0], [*schedule.departures, schedule.total_cost]
    trace = []
    batch = 1
    while len(trace) < params.n_improve:
        rounds = draws[len(trace) : len(trace) + batch]
        paths, clocks = _speculate(best_path, best_clock, rounds, params, matrix)
        # the first round that beats the incumbent; the rounds after it are rerun
        won = next((r for r, clock in enumerate(clocks) if clock[-1] < best_clock[-1]), None)
        if won is None:
            trace += [best_clock[-1]] * len(rounds)
            batch = min(2 * batch, MAX_BATCH)
        else:
            trace += [best_clock[-1]] * won
            best_path, best_clock = paths[won], clocks[won]
            trace.append(best_clock[-1])
            batch = 1
    schedule = Schedule(tuple(best_clock[:-1]), best_clock[-1])
    return _result(best_path[1:-1], schedule, trace, params)


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
        "seed": int(p.seed),
        "rng": RNG_ALGORITHM,
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
    doc = _parse_json(text, "result")
    if not {"route", "departures_s"} <= doc.keys():
        raise InputError(
            "result document must be a JSON object with 'route' and 'departures_s' fields"
        )
    for name, kind in (("route", "integer"), ("departures_s", "number")):
        values = _expect(doc[name], "list", f"result field '{name}'")
        for i, v in enumerate(values):
            _expect(v, kind, f"result entry {name}[{i}]")
    return doc
