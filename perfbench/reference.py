"""Reference computations the benchmark checks tdvrp's outputs against.

Written apart from ``tdvrp.model`` on purpose: matrices are plain nested
lists read with the ``json`` module, and a tour is priced by an explicit
arc-by-arc recursion. A fault in the package's evaluation kernel therefore
cannot hide in the check.

The arithmetic repeats the model's own order (``k = k + t`` per arc, layer
``min(k // step, last)``), so float results on the averaged matrix are
bit-equal, not merely close.
"""

from __future__ import annotations

import json


def load_matrix_file(path):
    """(layers, step_seconds) from a matrix JSON file, as nested lists."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["times"], int(doc["step_seconds"])


def averaged(layers, step):
    """One-layer element-wise mean of the layers, covering their horizon."""
    n_layers = len(layers)
    n = len(layers[0])
    mean = [
        [sum(layers[s][i][j] for s in range(n_layers)) / n_layers for j in range(n)]
        for i in range(n)
    ]
    return [mean], step * n_layers


def schedule(order, layers, step):
    """Departure times (depot first) and total cost of the closed tour."""
    last = len(layers) - 1
    k = 0
    departures = [0]
    prev = 0
    for node in order:
        k = k + layers[min(int(k // step), last)][prev][node]
        departures.append(k)
        prev = node
    if prev != 0:
        k = k + layers[min(int(k // step), last)][prev][0]
    return departures, k


def layers_used(order, layers, step):
    """Number of distinct layers the tour's arcs are priced in."""
    last = len(layers) - 1
    departures, _ = schedule(order, layers, step)
    return len({min(int(k // step), last) for k in departures})


def exhaustive_optimum(layers, step):
    """Cheapest tour by depth-first enumeration of every client order.

    Orders are visited in lexicographic order and only a strictly cheaper
    tour replaces the incumbent, so ties go to the lexicographically
    smallest order.
    """
    n = len(layers[0])
    last = len(layers) - 1
    best_order = None
    best_cost = None
    order = []
    used = [False] * n

    def extend(prev, k):
        nonlocal best_order, best_cost
        row = layers[min(int(k // step), last)][prev]
        if len(order) == n - 1:
            total = k + row[0]
            if best_cost is None or total < best_cost:
                best_order, best_cost = tuple(order), total
            return
        for node in range(1, n):
            if not used[node]:
                used[node] = True
                order.append(node)
                extend(node, k + row[node])
                order.pop()
                used[node] = False

    extend(0, 0)
    return best_order, best_cost
