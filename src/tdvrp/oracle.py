"""Ground truth for small instances.

The time-dependent arc costs make the integer formulation nonlinear, so the
exact optimum comes from branch and bound over the lexicographic tree of client
permutations, one level an array step. A partial tour is dropped when its clock
plus each unvisited node's (the depot's too) cheapest incoming arc on any layer
is above the best cost known, or equal to it once the search has a tour that
cheap: every later state is lexicographically greater and could only tie. On a
float matrix, where a sum of bounds can round past the arcs it bounds, it must
pass by a relative 1e-13. The first best is a dive that keeps BEAM_WIDTH
partial tours a level, so no solver bounds the oracle. Survivors keep
lexicographic order and go down CHUNK at a time, so the first cheapest tour is
the lexicographically smallest and memory stays bounded when nothing prunes. On
2 vCPUs 8-10 synthetic clients take 1-9 ms of CPU, but loose bounds (a cheap
layer no tour reaches) prune nothing: 10 clients then take 0.15-0.3 s, hence
MAX_CLIENTS. A separate checker verifies that an arc-variable solution
satisfies the degree and Miller-Tucker-Zemlin subtour-elimination constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import InputError
from .model import (
    Instance, MultiLayerMatrix, Route, Schedule, _advance, _integer, _integers, _order,
    _order_schedule, _same_nodes,
)

MAX_CLIENTS = 10  # when the bounds are loose nothing prunes, and 11 clients take 11 x as long
BEAM_WIDTH = 64
CHUNK = 512  # states of a level handed down at once, at most 5,120 lanes
SUFFIX_CLIENTS = 3  # the last clients, ordered every way at once behind each state


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
    """Exact optimum over every client permutation, by branch and bound.

    Ties go to the lexicographically smallest permutation. Refuses instances
    with more than MAX_CLIENTS clients.
    """
    n = instance.n_nodes
    _same_nodes("matrix", matrix.n_nodes, n)
    n_clients = n - 1
    if n_clients > MAX_CLIENTS:
        raise InputError(f"{n_clients} clients exceeds the exhaustive-search cap of {MAX_CLIENTS}")
    unvisited, unseen = _unvisited(n)
    times = matrix.times
    # low[mask]: each node not in mask, the depot always, entered by its cheapest arc
    low = unseen @ np.where(np.eye(n, dtype=bool), times.max(), times.min(axis=0)).min(axis=0)
    slack = 1e-13 if times.dtype.kind == "f" else 0
    width = min(n_clients, SUFFIX_CLIENTS)
    orders = np.array(list(permutations(range(width))), dtype=np.intp)
    choices = range(n_clients, width, -1)  # clients a state of each level goes on to

    def step(k, code, mask, r):
        """Each state followed by each of its r unvisited clients."""
        nodes = unvisited[mask, :r]
        k = _advance(np.repeat(k, r), [(((code & 15) * n)[:, None] + nodes).ravel()], matrix)
        return k, ((code << 4)[:, None] | nodes).ravel(), (mask[:, None] | 1 << nodes).ravel()

    def finish(k, code, mask):
        """The cost and order of the first cheapest completion of the states."""
        seq = unvisited[mask, :width][:, orders].reshape(-1, width)
        path = [np.repeat(code & 15, len(orders)), *seq.T, 0]
        k = _advance(np.repeat(k, len(orders)), [a * n + b for a, b in zip(path, path[1:])],
                     matrix)
        lane = int(np.argmin(k))
        code = int(code[lane // len(orders)])
        prefix = [(code >> 4 * i) & 15 for i in range(n_clients - width - 1, -1, -1)]
        return k[lane], (*prefix, *seq[lane].tolist())

    states = root = np.zeros(1, times.dtype), np.zeros(1, np.int64), np.zeros(1, np.intp)
    for r in choices:
        k, code, mask = step(*states, r)
        keep = np.argsort(k + low[mask], kind="stable")[:BEAM_WIDTH]
        states = k[keep], code[keep], mask[keep]
    best_cost, best_order = finish(*states)[0], None

    def search(level, k, code, mask):
        nonlocal best_cost, best_order
        if level == len(choices):
            cost, order = finish(k, code, mask)
            # the dive's cost holds until the search's first tour as cheap, which ties it
            if cost < best_cost or best_order is None and cost == best_cost:
                best_cost, best_order = cost, order
            return
        k, code, mask = step(k, code, mask, choices[level])
        within = np.less_equal if best_order is None else np.less
        keep = within(k + low[mask], best_cost + best_cost * slack)
        k, code, mask = k[keep], code[keep], mask[keep]
        for a in range(0, len(k), CHUNK):
            search(level + 1, k[a:a + CHUNK], code[a:a + CHUNK], mask[a:a + CHUNK])

    search(0, *root)
    return Route(best_order), _order_schedule(best_order, matrix)


@lru_cache(maxsize=None)
def _unvisited(n: int) -> tuple:
    """Row `mask` of each: the clients of n nodes whose bits are not in mask,
    ascending, then the others; and whether each node's bit is not in it."""
    unseen = (np.arange(2**n)[:, None] >> np.arange(n) & 1) == 0
    tables = np.argsort(~unseen[:, 1:], axis=1, kind="stable") + 1, unseen
    for table in tables:
        table.setflags(write=False)
    return tables


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
