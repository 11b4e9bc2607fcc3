"""Ground truth for small instances.

Exhaustive search over client permutations gives the exact optimum (the
time-dependent arc costs make the integer formulation nonlinear, so
enumeration is the honest oracle). A separate checker verifies that an
arc-variable solution satisfies the degree constraints and the
Miller-Tucker-Zemlin subtour-elimination condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, pairwise, permutations

import numpy as np

from .errors import InputError
from .model import Instance, MultiLayerMatrix, Route, Schedule, _advance, _order, _order_schedule

MAX_CLIENTS = 10  # the search is factorial
# the last BLOCK_CLIENTS clients of a tour are permuted in one batch of
# at most 7! = 5,040 lanes
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
        x = np.asarray(self.x, dtype=np.int64)
        u = np.asarray(self.u, dtype=np.int64)
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
    if matrix.n_nodes != n:
        raise InputError(f"matrix covers {matrix.n_nodes} nodes, instance has {n}")
    n_clients = n - 1
    if n_clients > MAX_CLIENTS:
        raise InputError(
            f"{n_clients} clients exceeds the exhaustive-search cap of {MAX_CLIENTS}"
        )
    clients = range(1, n)
    width = min(n_clients, BLOCK_CLIENTS)
    suffixes = _suffix_columns(width)
    depot = np.zeros(suffixes.shape[1], dtype=np.intp)
    best_order = None
    best_cost = None
    # prefixes come in lexicographic order and so do the suffixes behind
    # each, so the first minimum found is the lexicographically smallest
    for prefix in permutations(clients, n_clients - width):
        rest = np.array(sorted(set(clients) - set(prefix)), dtype=np.intp)
        k = np.full(len(depot), _order_schedule(prefix, matrix).departures[-1],
                    dtype=matrix.times.dtype)
        # arcs as flat indices, built one step at a time: a stacked array of
        # every arc would add its size to the peak memory
        start = [prefix[-1] if prefix else 0]
        nodes = chain(start, (rest[column] for column in suffixes), [depot])
        costs = _advance(k, (a * n + b for a, b in pairwise(nodes)), matrix)
        lane = int(np.argmin(costs))
        if best_cost is None or costs[lane] < best_cost:
            best_order = prefix + tuple(int(v) for v in rest[suffixes[:, lane]])
            best_cost = costs[lane]
    route = Route(best_order)
    return route, _order_schedule(route.order, matrix)


@lru_cache(maxsize=None)
def _suffix_columns(width: int) -> np.ndarray:
    """Every permutation of range(width) in lexicographic order, one column
    per permutation (row j holds each permutation's j-th entry)."""
    table = np.array(list(permutations(range(width))), dtype=np.intp).T.copy()
    table.setflags(write=False)
    return table


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
    Returns one entry per violated constraint; an empty list means feasible.
    """
    if sol.n_nodes != n:
        raise InputError(f"solution covers {sol.n_nodes} nodes, expected {n}")
    x, u = sol.x, sol.u
    violations = []
    for i in range(n):
        row = int(x[i].sum())
        if row != 1:
            violations.append(
                Violation("out-degree", (i,), f"row {i} sums to {row}, expected 1")
            )
    for j in range(n):
        col = int(x[:, j].sum())
        if col != 1:
            violations.append(
                Violation("in-degree", (j,), f"column {j} sums to {col}, expected 1")
            )
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            lhs = int(u[i]) - int(u[j]) + n * int(x[i, j])
            if lhs > n - 1:
                violations.append(
                    Violation(
                        "subtour-order",
                        (i, j),
                        f"u[{i}]-u[{j}]+{n}*x[{i},{j}] = {lhs} > {n - 1}",
                    )
                )
    return violations

