"""Ground truth for small instances.

Exhaustive search over client permutations gives the exact optimum (the
time-dependent arc costs make the integer formulation nonlinear, so
enumeration is the honest oracle). The last clients of a tour are permuted
in one block, walked breadth first down the lexicographic prefix tree of
their permutations: level j holds each distinct choice of the block's first
j + 1 clients once and takes one arc step from its parent's clock, so a
partial tour shared by many permutations is priced once. A block of 7
clients makes 18,739 lane steps where one walk per permutation makes
8 x 5,040 = 40,320. A separate checker verifies that an arc-variable
solution satisfies the degree constraints and the Miller-Tucker-Zemlin
subtour-elimination condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .errors import InputError
from .model import (
    Instance, MultiLayerMatrix, Route, Schedule, _advance, _integer, _integers, _order,
    _order_schedule, _same_nodes,
)

MAX_CLIENTS = 10  # the search is factorial
# the last BLOCK_CLIENTS clients of a tour are permuted in one block, a
# prefix tree of 7 + 42 + 210 + 840 + 2,520 + 5,040 lanes, then 5,040 for
# each step to the last client and back to the depot: 18,739 lane steps
BLOCK_CLIENTS = 7


@dataclass(frozen=True, eq=False)
class ArcSolution:
    """Binary arc choices x plus the MTZ ordering variables u.

    x[i][j] = 1 iff the vehicle drives arc i->j; the diagonal is always zero.
    u[i] is the 1-based visit position of client i (u[0] is unused and 0).
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x, u = _integers(self.x, "x"), _integers(self.u, "u")
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise InputError(f"x must be square, got shape {x.shape}")
        if u.shape != (x.shape[0],):
            raise InputError(f"u must have one entry per node, got shape {u.shape}")
        if not np.isin(x, (0, 1)).all():
            raise InputError("x entries must be 0 or 1")
        if np.trace(x) != 0:
            raise InputError("x must have a zero diagonal (no self-arcs)")
        x.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class Violation:
    constraint: str  # "out-degree" | "in-degree" | "subtour-order"
    nodes: tuple
    detail: str


def brute_force_optimum(instance: Instance, matrix: MultiLayerMatrix) -> tuple[Route, Schedule]:
    """Exact optimum by enumerating every client permutation.

    Ties go to the lexicographically smallest permutation. Refuses instances
    with more than MAX_CLIENTS clients.
    """
    n = instance.n_nodes
    _same_nodes("matrix", matrix.n_nodes, n)
    n_clients = n - 1
    if n_clients > MAX_CLIENTS:
        raise InputError(
            f"{n_clients} clients exceeds the exhaustive-search cap of {MAX_CLIENTS}"
        )
    clients = range(1, n)
    width = min(n_clients, BLOCK_CLIENTS)
    suffixes = _suffix_columns(width)
    levels = _prefix_tree(width)
    best_order = None
    best_cost = None
    # prefixes come in lexicographic order and so do the suffixes behind
    # each, so the first minimum found is the lexicographically smallest
    for prefix in permutations(clients, n_clients - width):
        rest = sorted(set(clients) - set(prefix))
        # arc (a, b) of the block is entry a * (width + 1) + b: a and b index
        # rest, and index width is the prefix's last node as an origin and
        # the depot as a destination
        origins = np.array(rest + [prefix[-1] if prefix else 0], dtype=np.intp)
        ends = np.array(rest + [0], dtype=np.intp)
        arcs = (origins[:, None] * n + ends).reshape(-1)
        k = np.full(1, _order_schedule(prefix, matrix).departures[-1], dtype=matrix.times.dtype)
        for parent, pair in levels:
            k = _advance(k[parent], [arcs[pair]], matrix)
        lane = int(np.argmin(k))
        if best_cost is None or k[lane] < best_cost:
            best_order = prefix + tuple(rest[v] for v in suffixes[:, lane])
            best_cost = k[lane]
    route = Route(best_order)
    return route, _order_schedule(route.order, matrix)


@lru_cache(maxsize=None)
def _suffix_columns(width: int) -> np.ndarray:
    """Every permutation of range(width) in lexicographic order, one column
    per permutation (row j holds each permutation's j-th entry)."""
    table = np.array(list(permutations(range(width))), dtype=np.intp).T.copy()
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _prefix_tree(width: int) -> tuple:
    """The levels of the lexicographic prefix tree over _suffix_columns(width),
    one (parent, pair) per arc step, the step back to the depot last.

    State s of level j < width is the first j + 1 entries of column
    s * (width - j - 1)!, and it steps from state parent[s] of the level
    before (one start state before level 0) along arc pair[s]; the depot
    level has one state per column. A pair is a * (width + 1) + b, where
    index width stands for the block's start as a and the depot as b.
    """
    table = _suffix_columns(width)
    edge = np.full((1, table.shape[1]), width, dtype=np.intp)
    path = np.concatenate([edge, table, edge])
    levels = []
    for j in range(width + 1):
        heads = np.arange(0, table.shape[1], factorial(max(width - j - 1, 0)))
        parent = np.arange(len(heads)) // max(width - j, 1)
        pair = path[j, heads] * (width + 1) + path[j + 1, heads]
        parent.setflags(write=False)
        pair.setflags(write=False)
        levels.append((parent, pair))
    return tuple(levels)


def route_to_arcs(route: Route) -> ArcSolution:
    """Arc variables of a complete route, a Route or a sequence of clients
    1..len(route) each once, with u set to the visit positions."""
    n = len(route) + 1
    order = _order(route, n, complete=True)
    x = np.zeros((n, n), dtype=np.int64)
    u = np.zeros(n, dtype=np.int64)
    prev = 0
    for pos, node in enumerate(order, start=1):
        x[prev, node] = 1
        u[node] = pos
        prev = node
    x[prev, 0] = 1
    return ArcSolution(x=x, u=u)


def check_milp_feasibility(sol: ArcSolution, n: int) -> list[Violation]:
    """Check the degree constraints and the MTZ ordering condition.

    Every node needs exactly one departure and one arrival; for every ordered
    client pair i != j the condition u_i - u_j + n*x_ij <= n - 1 must hold.
    Returns one entry per violated constraint, out-degree by row, in-degree
    by column, then subtour-order row-major; an empty list means feasible.
    """
    n = _integer(n, "n", 2)
    _same_nodes("solution", sol.n_nodes, n)
    x, u = sol.x, sol.u.astype(object)  # Python ints: u_i - u_j cannot wrap
    violations = [
        Violation(kind, (i,), f"{line} {i} sums to {total}, expected 1")
        for kind, line, axis in (("out-degree", "row", 1), ("in-degree", "column", 0))
        for i, total in enumerate(x.sum(axis=axis).tolist())
        if total != 1
    ]
    # over client pairs; the diagonal is 0 <= n - 1, as x has a zero diagonal
    lhs = u[1:, None] - u[1:] + n * x[1:, 1:]
    for i, j in (np.argwhere(lhs > n - 1) + 1).tolist():
        detail = f"u[{i}]-u[{j}]+{n}*x[{i},{j}] = {lhs[i - 1, j - 1]} > {n - 1}"
        violations.append(Violation("subtour-order", (i, j), detail))
    return violations
