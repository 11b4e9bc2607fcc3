"""Randomized greedy construction plus insertion-deletion improvement.

Construction builds n_grasp tours by repeatedly inserting a not-yet-routed
client at one of the k_grasp cheapest (node, slot) candidates, drawn
uniformly; the best tour is kept. Improvement then runs n_improve rounds:
delete l_delete nodes one at a time (each drawn from the k_del largest
cost savings, savings recomputed after every deletion), reinsert them
first-deleted-first-reinserted at one of their k_ins cheapest slots, and keep
the round's result only if it beats the best tour so far.

Both phases keep a tour as one state: the closed path [0, *order, 0] and its
clock, in which clock[j] is the time at path[j] and clock[-1] the tour's
cost. A move at slot p leaves the clock up to p unchanged, so each edit
re-times the tour only from the edited slot on, with the scalar walk
`model._arrivals`. Construction keeps each trial's state as two lists and
edits them with `_insert`; improvement keeps a batch of rounds as two
(rounds x size) arrays and edits each round's row in place.

Every candidate is priced on the whole tour it would make: in a
time-dependent matrix an insertion or deletion shifts all downstream
departure times, so local two-arc arithmetic would be wrong. One rejoin walk
(`_rejoin`) prices both: each candidate leaves the kept clock at its slot,
drives its detour (into and out of the new node, or past the deleted one)
and re-walks only the rest of the tour. All candidates of one move advance
together: one array step per arc (`model._advance`), or, on an integer
matrix, one pass per layer (`_layer_runs`). The walk names every arc by
its flat index origin * n + destination, so an arc step is one `take` from
the flattened layers; on a one-layer matrix, such as the averaged baseline,
a step skips the layer lookup. Within one layer a tour's arc times are
fixed, so the pass of layer s, over a prefix sum of each priced tour's
layer-s times, carries every candidate then in layer s across all the arcs
it leaves within that layer at once. Integer sums are exact, so both give
the same bits; `_rejoin` alone asks one rule (`_way`) which way is
cheaper. Float matrices are always walked arc by arc: prefix sums would
change the order of float additions.

The n_grasp construction trials grow in lockstep: after m insertions every
trial has m clients placed and the same number left, so one walk prices the
insertion grids of all trials at once, and `enumerate_insertions` ranks
each trial's grid; the drawn rank names the column of the client and the
slot. Step m always offers (m + 1) * (clients - m) candidates, whatever was
picked before, so every pick is drawn up front in one `rng.integers` call,
its bounds laid out in the order the trials would draw them one after
another. An array of bounds draws the values, and leaves the generator
state, of one scalar call per bound, so the stream, and the state
improvement continues from, match a trial-by-trial build.

The picks are known before the walk, so a construction step long enough
to pay for it bounds, then prices: a candidate that cannot be among its
trial's first pick + 1 ranks keeps a lower bound of its cost in place of
its price, and the rest go by layer runs. Short steps, and improvement
moves, most of whose lanes would survive the bounds, are priced in full,
by layer runs or the walk. An integer grid of more than KEYED_RANKING
candidates is ranked by one unstable argsort of unique keys (delta, then
flat index), which orders it as the stable sort would, and faster on grids
that large.

Improvement rounds run in speculative batches. Most rounds do not beat the
incumbent, and a round's draws do not depend on its tour: deletion d offers
min(k_del, clients - d) picks and reinsertion e min(k_ins, slots), whatever
was deleted. So every draw is made up front in one call, laid out round by
round (deletions, then reinsertions), and a batch of up to MAX_BATCH
rounds then runs from the same incumbent in lockstep, one walk per move for
all of them (the first deletion, on the shared incumbent, is priced once).
The batch's tours stay arrays from one move to the next: each move's walk
reads them as they are, and each round's edit shifts its own row. The
first round of the batch that beats the incumbent is kept and the rounds
after it are dropped; the next batch starts at the round after the kept
one, with its draws unchanged. The first batch is one round; a batch
keeps its size after an acceptance and doubles after a batch that keeps
none. The batch size sets only how many rounds share a walk: tours, traces
and the generator state match a round-by-round search.

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
    _integer,
    _order,
    _order_schedule,
    _parse_json,
    _same_nodes,
)

RNG_ALGORITHM = "numpy-pcg64"
# at most this many improvement rounds run from one incumbent in one batch
MAX_BATCH = 8
# an integer grid of more candidates than this is ranked by keys (2 vCPUs: at
# 1,024 int64 both sorts take about 19 us; at 240 the stable one takes 9 us and
# the keyed 17 us, at 2,550 the stable one 129 us and the keyed 41 us)
KEYED_RANKING = 1024


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


def _insertion_deltas(paths, clock, nodes, matrix: MultiLayerMatrix, bound=None) -> np.ndarray:
    """Cost change of inserting each trial's `nodes` at each slot of its
    tour, as a (slots x trials x nodes) grid.

    Row t of `paths` and `clock` is the tour state of trial t, and row t of
    `nodes` the clients it may take. Every tour has the same length. Lane
    (p, t, j) leaves paths[t][p], visits nodes[t][j] and rejoins at paths[t][p + 1].
    With a `bound` (low, high, picks), only trial t's first picks[t] + 1
    ranks need be exact (see `_bounds`).
    """
    paths = np.asarray(paths, dtype=np.intp)
    clock = np.asarray(clock, dtype=matrix.times.dtype)
    nodes = np.asarray(nodes, dtype=np.intp)
    # the arcs into and out of each new node, as flat indices
    into = paths[:, :-1].T[:, :, None] * matrix.n_nodes + nodes
    out = nodes * matrix.n_nodes + paths[:, 1:].T[:, :, None]
    return _rejoin(paths, clock, [into, out], 1, matrix, bound) - clock[:, -1, None]


def _deletion_savings(paths, clock, matrix: MultiLayerMatrix) -> np.ndarray:
    """Cost saved by deleting each client of each trial's tour, as a (clients x trials) grid.

    Row t of `paths` and `clock` is the tour state of trial t. Every tour has
    the same length. Lane (i, t) leaves paths[t][i] and rejoins at paths[t][i + 2].
    """
    paths = np.asarray(paths, dtype=np.intp)
    clock = np.asarray(clock, dtype=matrix.times.dtype)
    # the arc that skips each client, lane-major: the walk reads contiguous arrays faster
    skip = (paths[:, :-2] * matrix.n_nodes + paths[:, 2:]).T.copy()[:, :, None]
    return clock[:, -1] - _rejoin(paths, clock, [skip], 2, matrix)[:, :, 0]


def _rejoin(paths, clock, detour, first, matrix: MultiLayerMatrix, bound=None) -> np.ndarray:
    """Depot arrival times of lanes that leave their tour, take a detour and rejoin it.

    Lane (i, t, j) leaves paths[t][i] at clock[t][i], drives one arc from each
    (size - first, trials, j) array of flat indices in `detour`, then drives
    tour t from position i + first back to the depot, the way `_way` names:
    by the arc walk, by layer runs, or, for a move with a `bound`, bounded
    first and only the lanes kept run.
    """
    trials, size = paths.shape
    arcs = len(detour) + size - 1 - first  # lane 0's: the detour, then the tour from first
    k = np.repeat(clock.T[: size - first, :, None], detour[0].shape[2], axis=2)
    own = paths[:, :-1] * matrix.n_nodes + paths[:, 1:]  # each tour's arcs, as flat indices
    way = _way(arcs, k.size, clock, matrix, bound is not None)
    if way == "walk":
        # position-major: lane i takes own arc i + first + j at walk step j
        own = own.T.copy()[:, :, None]
        tail = (own[first + j :] for j in range(size - 1 - first))
        return _advance(k, chain(detour, tail), matrix)
    _advance(k, detour, matrix)
    if way == "bounds":
        least, lane = _bounds(own, k, first, *bound)
        least[lane] = _layer_runs(own, k[lane], lane[1], lane[0] + first, matrix)
        return least
    pos = np.arange(first, size)[:, None, None]
    return _layer_runs(own, k, np.arange(trials)[:, None], pos, matrix)


def _bounds(own, k, first, low, high, picks):
    """Lower bounds of the arrivals of `_rejoin`'s lanes (lane (i, t, j) back
    at position i + first of tour t, whose arcs are own[t], at time k[i, t, j]),
    and the position-major indices of the lanes that can rank among the first
    keep = picks[t] + 1 of trial t.

    `low` and `high` hold each arc's least and greatest time over the layers,
    by flat index, so a lane arrives in [k + the sum of `low`, k + the sum of
    `high`] over the tour's arcs after it rejoins. A lane whose lower bound
    exceeds its trial's keep-th smallest upper bound has keep lanes strictly
    cheaper, so it is not among the first keep, not even on a tie, and its
    lower bound ranks it after them. A bound adds at most n arc times, and
    MultiLayerMatrix keeps n times its largest below 2**63: none wraps.
    """
    trials = len(own)
    sums = np.zeros((2, trials, own.shape[1] + 1), dtype=np.int64)
    np.cumsum(low[own], axis=1, out=sums[0, :, 1:])
    np.cumsum(high[own], axis=1, out=sums[1, :, 1:])
    # rest[b, x, t]: bound b of tour t's arcs from position x to the depot
    rest = (sums[:, :, -1:] - sums).transpose(0, 2, 1)[:, first:, :, None]
    least = k + rest[0]
    most = (k + rest[1]).transpose(1, 0, 2).reshape(trials, -1)
    cut = np.partition(most, picks, axis=1)[np.arange(trials), picks]
    return least, np.nonzero(least <= cut[:, None])


def _way(arcs, lanes, clock, matrix: MultiLayerMatrix, bounded) -> str:
    """How to price a move whose `lanes` lanes drive up to `arcs` arcs on
    tours whose times are `clock`: "walk", "runs" or, if the move is
    `bounded`, "bounds", by estimated µs. Only integer matrices take layer
    runs or bounds: prefix sums would change the order of float additions.
    Fitted to each way timed in whole solves of 8-200 clients and 1-30
    trials (2 vCPUs): a walk step costs 4 µs and 2 ns a lane (on average
    half the lanes move); layer runs 60 µs, then 2 µs and 22 ns a lane a
    pass, one per layer the tours reach and one for the detours'; bounds
    16 µs, 10 ns a lane, 100 ns a position. A move whose walk costs over
    three times its bounds is bounded: the lanes kept then cost about twice
    the bounds to price.
    """
    if matrix.times.dtype != np.int64:
        return "walk"
    walk = arcs * (4 + lanes / 500)
    if bounded and walk > 3 * (16 + lanes / 100 + clock.size / 10):
        return "bounds"
    # a clock never falls, so each tour's latest time is its cost
    steps = min(matrix.n_layers, max(clock[:, -1].tolist()) // matrix.step_seconds + 2)
    return "runs" if 60 + steps * (2 + lanes / 45) < walk else "walk"


def _layer_runs(own, k, tour, pos, matrix: MultiLayerMatrix) -> np.ndarray:
    """Depot arrival times of lanes that follow their tour's own arcs.

    Row t of `own` holds tour t's arcs as flat indices. Lane r stands at
    position pos[r] of tour tour[r] at time k[r] (`tour` and `pos`
    broadcast to the shape of `k`) and drives the rest of that tour, every arc
    priced on the layer of its own departure. Within one layer a tour's arc
    times are fixed, so prefix[s, t, x], the layer-s time of the first x arcs
    of tour t, prices a whole run of same-layer arcs at once: a lane in layer
    s at position i drives on to the first position y whose departure,
    k + prefix[s, t, y] - prefix[s, t, i], falls past the layer's end, or to
    the depot. One pass per layer moves every lane: the pass of layer s
    leaves a lane already past layer s, or at the depot, where it stands, and
    in the last layer every lane drives to the depot, with no search. The
    passes stop once every lane is at the depot. Pass s skips the lanes from
    ends[s] on, which all start past layer s (by the suffix minimum of the
    starts): lanes come position-major, so on long tours about half of them.

    Layer s is one slab of rows, one per tour, laid end to end: row t is
    tour t's prefix sums, shifted past row t - 1 by more than any search
    reaches, then a sentinel column. So one `searchsorted` per pass serves
    every lane. The sentinel holds the depot's value, under a search key at
    the row's ceiling: a lane whose budget outlasts its tour stops there, at
    the depot's time, and never reads the next row. A budget is capped at
    top + 1 s, more than any tour needs, so a lane cannot search past that
    ceiling. Arc times are integers, and >= 0 in every MultiLayerMatrix; the
    sums are exact, equal to the scalar walk's bit for bit. An int64 `k` is
    advanced in place.
    """
    times, step, layers = matrix.times, matrix.step_seconds, matrix.n_layers
    trials, size = own.shape[0], own.shape[1] + 1
    cols = size + 1  # the tour's positions, then the sentinel
    slab = np.zeros((layers, trials, cols), dtype=np.int64)
    np.cumsum(times.reshape(layers, -1)[:, own], axis=2, out=slab[:, :, 1:size])
    slab[:, :, size] = slab[:, :, size - 1]
    top = int(slab[:, :, size].max())
    width = 2 * top + 2  # a row's span: its sums, then a budget of top + 1
    if trials * width >= 2**63:
        raise InputError(
            f"travel times too large to price exactly: {trials} tours "
            f"x {width} s overflows 64-bit seconds"
        )
    # from 0, in int64: an arange that starts at width - 1 sizes itself in floats
    rows = np.arange(trials, dtype=np.int64) * width
    slab += rows[:, None]
    key = slab[:-1].copy()  # the last layer is never searched
    key[:, :, size] = rows + (2 * top + 1)
    slab, key = slab.reshape(layers, trials * cols), key.reshape(layers - 1, trials * cols)
    at = np.empty(k.shape, dtype=np.int64)  # each lane's column in its slab
    np.add(tour * cols, pos, out=at)
    depot = at + (size - 1 - pos)  # and its tour's depot column
    shape, at, depot = k.shape, at.ravel(), depot.ravel()
    k = k.astype(np.int64, copy=False).ravel()
    ends = np.minimum.accumulate(k[::-1])[::-1].searchsorted(np.arange(step, layers * step, step))
    for s, end in enumerate(ends.tolist()):
        values, lanes, clocks = slab[s], at[:end], k[:end]
        start = values[lanes]
        budget = np.subtract((s + 1) * step, clocks)  # <= 0 for a lane past layer s
        np.minimum(budget, top + 1, out=budget)
        budget += start
        np.maximum(key[s].searchsorted(budget), lanes, out=lanes)
        gain = values[lanes]
        gain -= start
        clocks += gain
        # a lane past `end` has not moved yet
        if end == k.size and (at >= depot).all():
            return k.reshape(shape)
    values = slab[-1]
    k += values[depot] - values[at]
    return k.reshape(shape)


def enumerate_insertions(deltas) -> np.ndarray:
    """The (slots x columns) grid `deltas` of insertion cost deltas, ranked:
    its node-major flat indices column * slots + slot, cheapest first, ties
    broken by column, then slot.

    An integer grid of more than KEYED_RANKING candidates is ranked by one
    unstable argsort of the keys (delta - least delta) * size + flat index:
    they are unique and sort in the stable order. A float grid, a smaller
    one, or one whose keys would pass 2**63 - 1, takes the stable argsort.
    """
    # node-major, so a stable sort breaks delta ties by (column, slot)
    flat = deltas.T.ravel()
    if flat.size > KEYED_RANKING and flat.dtype == np.int64:
        least, size = int(flat.min()), flat.size
        if (int(flat.max()) - least + 1) * size <= 2**63:
            key = flat - least
            key *= size
            key += np.arange(size)
            return np.argsort(key)
    return np.argsort(flat, kind="stable")


def construct_route(matrix: MultiLayerMatrix, k_grasp: int, rng, trials: int):
    """Grow `trials` tours from empty in lockstep (see the module docstring),
    drawing each insertion uniformly from the k_grasp cheapest candidates;
    return their (paths, clocks) in trial order.
    """
    k_grasp = _integer(k_grasp, "k_grasp", 1)
    clients = matrix.n_nodes - 1
    # see the module docstring: one draw call, laid out trial by trial
    bounds = [min(k_grasp, (m + 1) * (clients - m)) for m in range(clients)]
    # picks[m][t]: trial t's drawn rank at step m
    picks = rng.integers(0, bounds * trials).reshape(trials, clients).T
    layers = matrix.times.reshape(matrix.n_layers, -1)
    low, high = layers.min(axis=0), layers.max(axis=0)
    paths = [[0, 0] for _ in range(trials)]
    clocks = [[0, 0] for _ in range(trials)]
    remaining = [list(range(1, clients + 1)) for _ in range(trials)]
    for m, drawn in enumerate(picks):
        deltas = _insertion_deltas(paths, clocks, remaining, matrix, (low, high, drawn))
        for t, pick in enumerate(drawn.tolist()):
            # the candidate at the trial's drawn rank; `remaining[t]` is
            # ascending, so ties break by (node, slot)
            column, pos = divmod(int(enumerate_insertions(deltas[:, t])[pick]), m + 1)
            _insert(paths[t], clocks[t], pos, remaining[t].pop(column), matrix)
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
    state (path, clock), in lockstep; return their (paths, clocks) as
    (rounds x size) arrays, in round order.

    A round's draws are its (deletion picks, reinsertion picks): ranks into
    the savings of each deletion and the slot deltas of each reinsertion.
    Every round edits its own row in place: the tours after d deletions are
    the first size - d columns.
    """
    rounds, size = len(draws), len(path)
    paths = np.tile(np.asarray(path, dtype=np.intp), (rounds, 1))
    clocks = np.tile(np.asarray(clock, dtype=matrix.times.dtype), (rounds, 1))
    deleted = np.empty((rounds, params.l_delete), dtype=np.intp)
    # every round deletes first from the same tour: price that move once
    tours = 1
    for d in range(params.l_delete):
        end = size - d
        savings = _deletion_savings(paths[:tours, :end], clocks[:tours, :end], matrix)
        # per tour, clients by savings descending, ties by node id
        ranked = np.lexsort((paths[:tours, 1 : end - 1], -savings.T))
        ranked = np.broadcast_to(ranked, (rounds, end - 2))
        for r, (picks, _) in enumerate(draws):
            row, times, i = paths[r], clocks[r], 1 + int(ranked[r, picks[d]])
            deleted[r, d] = row[i]
            row[i : end - 1] = row[i + 1 : end]
            times[i : end - 1] = _arrivals(
                times.item(i - 1), row.item(i - 1), row[i : end - 1].tolist(), matrix
            )
        tours = rounds
    for e in range(params.l_delete):
        end = size - params.l_delete + e
        deltas = _insertion_deltas(paths[:, :end], clocks[:, :end], deleted[:, e, None], matrix)
        # per round, slots by delta, ties by slot
        ranked = np.argsort(deltas[:, :, 0], axis=0, kind="stable")
        for r, (_, picks) in enumerate(draws):
            row, times, p = paths[r], clocks[r], int(ranked[picks[e], r])
            row[p + 2 : end + 1] = row[p + 1 : end]
            row[p + 1] = deleted[r, e]
            times[p + 1 : end + 1] = _arrivals(
                times.item(p), row.item(p), row[p + 1 : end + 1].tolist(), matrix
            )
    return paths, clocks


def improve(route, matrix: MultiLayerMatrix, params: SolverParams, rng) -> SolveResult:
    """Insertion-deletion improvement, n_improve rounds from the best-so-far.

    A round that does not beat the incumbent is discarded; the trace records
    the best cost after each round, so it is non-increasing. Rounds run in
    speculative batches (see the module docstring).
    """
    order = _order(route, matrix.n_nodes, complete=True)
    clients, l_delete = len(order), params.l_delete
    if l_delete > clients:
        raise InputError(f"l_delete={l_delete} exceeds the {clients} clients in the route")
    # see the module docstring: one draw call, laid out round by round
    bounds = [min(params.k_del, clients - d) for d in range(l_delete)]
    bounds += [min(params.k_ins, clients - l_delete + e + 1) for e in range(l_delete)]
    picks = rng.integers(0, bounds * params.n_improve).tolist()
    per_round = 2 * l_delete
    draws = [
        (picks[r : r + l_delete], picks[r + l_delete : r + per_round])
        for r in range(0, len(picks), per_round)
    ]
    schedule = _order_schedule(order, matrix)
    best_path, best_clock = [0, *order, 0], [*schedule.departures, schedule.total_cost]
    trace = []
    batch = 1
    while len(trace) < params.n_improve:
        rounds = draws[len(trace) : len(trace) + batch]
        paths, clocks = _speculate(best_path, best_clock, rounds, params, matrix)
        # the first round that beats the incumbent; the rounds after it are rerun
        costs = clocks[:, -1].tolist()
        won = next((r for r, cost in enumerate(costs) if cost < best_clock[-1]), None)
        if won is None:
            trace += [best_clock[-1]] * len(rounds)
            batch = min(2 * batch, MAX_BATCH)
        else:
            trace += [best_clock[-1]] * won
            # the depot departure stays the int 0 that `_order_schedule` gave
            best_path, best_clock = paths[won].tolist(), [0, *clocks[won, 1:].tolist()]
            trace.append(best_clock[-1])
    schedule = Schedule(tuple(best_clock[:-1]), best_clock[-1])
    return _result(best_path[1:-1], schedule, trace, params)


def solve(instance: Instance, matrix: MultiLayerMatrix, params: SolverParams) -> SolveResult:
    """Full pipeline: seed one RNG stream, construct, then improve.

    A fixed (instance, matrix, params) triple reproduces the exact same
    result; only changing the seed can change it. l_delete is clamped to the
    client count, and the result's params record the value used.
    """
    _same_nodes("matrix", matrix.n_nodes, instance.n_nodes)
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
    """Parse a result file back into a plain dict (route, departures, costs).

    Only the shape is checked here, an object with 'route' and 'departures_s'
    lists; `export.route_geojson` checks their entries."""
    doc = _parse_json(text, "result")
    if not {"route", "departures_s"} <= doc.keys():
        raise InputError(
            "result document must be a JSON object with 'route' and 'departures_s' fields"
        )
    for name in ("route", "departures_s"):
        if type(doc[name]) is not list:
            raise InputError(f"result field '{name}' = {json.dumps(doc[name])} is not a JSON list")
    return doc
