"""Correctness checks on the outputs a workload produces.

Each check compares an output with the benchmark's own computation
(``reference``) or with a property the method must have, never with a stored
copy of an earlier output. A check raises ``CheckFailed`` naming the first
discrepancy it finds.
"""

from __future__ import annotations

import json
from math import ceil

import reference


class CheckFailed(Exception):
    pass


def _fail(what, detail):
    raise CheckFailed(f"{what}: {detail}")


def check_tour(order, n_nodes, what="tour"):
    """The tour visits every client 1..n_nodes-1 exactly once."""
    if sorted(order) != list(range(1, n_nodes)):
        _fail(what, f"{list(order)} is not a permutation of clients 1..{n_nodes - 1}")


def check_schedule(order, departures, total, layers, step, what="tour"):
    """Departures and total cost equal the reference recursion, exactly."""
    ref_departures, ref_total = reference.schedule(order, layers, step)
    if list(departures) != ref_departures:
        first = next(
            (i for i, (a, b) in enumerate(zip(departures, ref_departures)) if a != b),
            min(len(departures), len(ref_departures)),
        )
        _fail(what, f"departure {first} differs from the reference recursion")
    if total != ref_total:
        _fail(what, f"total cost {total} != reference {ref_total}")


def check_trace(trace, n_grasp, final_cost, what="cost trace"):
    """Construction costs, then a non-increasing improvement trace that ends
    at the reported cost, which is no worse than the best construction."""
    construction = list(trace[:n_grasp])
    improvement = list(trace[n_grasp:])
    if len(construction) != n_grasp:
        _fail(what, f"{len(construction)} construction costs, expected {n_grasp}")
    best = min(construction)
    for i in range(1, len(improvement)):
        if improvement[i] > improvement[i - 1]:
            _fail(what, f"improvement round {i} raised the cost")
    end = improvement[-1] if improvement else best
    if end != final_cost:
        _fail(what, f"ends at {end}, reported cost is {final_cost}")
    if final_cost > best:
        _fail(what, f"final cost {final_cost} is worse than best construction {best}")


def check_compare_row(row, solve_cost, baseline_order, baseline_own_cost, layers, step):
    """One compare row against the same-seed solve and an independent
    re-pricing of the averaged-matrix tour.

    `row` is (c_ml, c_2d, c_2d_own) as compare reports them; c_2d_own is
    the baseline tour's cost on the averaged matrix, with one decimal.
    """
    c_ml, c_2d, c_2d_own = row
    if c_ml != solve_cost:
        _fail("compare row", f"c_ml {c_ml} != same-seed solve cost {solve_cost}")
    check_tour(baseline_order, len(layers[0]), "baseline tour")
    _, repriced = reference.schedule(baseline_order, layers, step)
    if c_2d != repriced:
        _fail("compare row", f"c_2d {c_2d} != baseline tour re-priced on the layers {repriced}")
    avg_layers, avg_step = reference.averaged(layers, step)
    _, own = reference.schedule(baseline_order, avg_layers, avg_step)
    if baseline_own_cost != own:
        _fail("compare row", f"baseline cost {baseline_own_cost} != averaged re-pricing {own}")
    if c_2d_own != f"{own:.1f}":
        _fail("compare row", f"c_2d_own {c_2d_own} != averaged re-pricing {own:.1f}")


def check_arc_encoding(order, x, u):
    """The arc variables encode exactly this tour and satisfy the
    Miller-Tucker-Zemlin ordering condition u_i - u_j + n*x_ij <= n - 1."""
    n = len(order) + 1
    path = [0, *order, 0]
    arcs = {(path[i], path[i + 1]) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if int(x[i][j]) != ((i, j) in arcs):
                _fail("arc encoding", f"x[{i}][{j}] = {int(x[i][j])} does not match the tour")
    for pos, node in enumerate(order, start=1):
        if int(u[node]) != pos:
            _fail("arc encoding", f"u[{node}] = {int(u[node])}, tour position is {pos}")
    for i in range(1, n):
        for j in range(1, n):
            if i != j and int(u[i]) - int(u[j]) + n * int(x[i][j]) > n - 1:
                _fail("arc encoding", f"MTZ condition fails for ({i}, {j})")


def check_optimum(opt_order, opt_cost, solver_costs, layers, step):
    """The exact optimum is a priced tour no solver tour beats."""
    check_tour(opt_order, len(layers[0]), "optimum")
    _, ref_cost = reference.schedule(opt_order, layers, step)
    if opt_cost != ref_cost:
        _fail("optimum", f"cost {opt_cost} != reference {ref_cost}")
    for cost in solver_costs:
        if cost < opt_cost:
            _fail("optimum", f"solver tour {cost} beats the optimum {opt_cost}")


def check_matrix_equal(got, source, what="fetched matrix"):
    """Element-for-element equality of two (layers, n, n) nested lists."""
    if got == source:
        return
    for s, (a, b) in enumerate(zip(got, source)):
        for i, (ra, rb) in enumerate(zip(a, b)):
            for j, (va, vb) in enumerate(zip(ra, rb)):
                if va != vb:
                    _fail(what, f"layer {s} element ({i}, {j}) is {va}, source is {vb}")
    _fail(what, "shape differs from the source")


def check_cache_file(path, source, step, start_epoch, repeats_ok=False):
    """Every line is a whole record and the lines hold each off-diagonal
    source element with its source value, exactly once unless `repeats_ok`
    (a resumed fetch may query a request again after a torn write)."""
    n = len(source[0])
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
                key = (rec["o"], rec["d"], rec["t"])
                value = rec["s"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                _fail("cache", f"line {lineno} is not a whole record ({exc})")
            if key in seen and not (repeats_ok and seen[key] == value):
                _fail("cache", f"line {lineno} repeats element {key}")
            seen[key] = value
    expected = len(source) * n * (n - 1)
    if len(seen) != expected:
        _fail("cache", f"{len(seen)} elements, expected {expected}")
    for s, layer in enumerate(source):
        t = start_epoch + s * step
        for o in range(n):
            for d in range(n):
                if o != d and seen.get((o, d, t)) != layer[o][d]:
                    _fail("cache", f"element ({o}, {d}, {t}) is {seen.get((o, d, t))}")


def check_fetch_counts(planned_billed, queried_billed, n_layers, n_nodes, daily_quota,
                       days_planned, days_taken):
    """Quota arithmetic: the plan bills layers * n^2 elements over
    ceil(billed / quota) days. The queries bill at most that, and at least
    every off-diagonal element: a request made only of self-pairs is never
    sent."""
    billed = n_layers * n_nodes * n_nodes
    if planned_billed != billed:
        _fail("fetch", f"plan bills {planned_billed} elements, expected {billed}")
    useful = n_layers * n_nodes * (n_nodes - 1)
    if not useful <= queried_billed <= billed:
        _fail("fetch", f"queries billed {queried_billed} elements, expected {useful}..{billed}")
    days = ceil(billed / daily_quota)
    if days_planned != days:
        _fail("fetch", f"plan says {days_planned} days, expected {days}")
    if days_taken != days:
        _fail("fetch", f"fetch took {days_taken} days, expected {days}")
