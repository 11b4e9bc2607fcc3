"""Time `oracle.brute_force_optimum` and count the states it prices.

The cases are the three instances of perfbench's exact-small workload at
--seed (8, 8 and 9 clients, 6 layers x 1,800 s, set up as that workload sets
them up), three random 10-client instances under the same profile, the
10-client matrix on which every tour ties (500 s an arc, 3 layers x 1,200 s),
where every state after the first tour is dropped as a tie, and a 10-client
matrix whose bounds are loose (500 s an arc on layer 0 and 1 s on layer 1,
which no tour reaches at a step of 10**9 s), where nothing can be pruned.
Each case's CPU time is this thread's `thread_time` over one call, the
median of `--repeats` calls. A state priced is one lane of one arc step
through `model._advance`; the full tree of c clients has
c!/(c-1)! + c!/(c-2)! + ... + c! states, and c! more for the steps back to
the depot. The tdvrp package is the one on PYTHONPATH, so the same script
times any tree:

    PYTHONPATH=src python3 tools/time_oracle.py
"""

from __future__ import annotations

import argparse
import statistics
import time
from math import factorial, perm

import numpy as np

from tdvrp import oracle
from tdvrp.instances import random_instance
from tdvrp.model import MultiLayerMatrix
from tdvrp.synth import TrafficProfile, generate_synthetic


def _synthetic(clients, rng):
    instance = random_instance(clients, seed=int(rng.integers(2**31)))
    profile = TrafficProfile(
        base_speed_kmh=25.0, peak_windows=((1, 3, 1.8), (4, 5, 1.3)),
        jitter_range=(0.8, 1.3), seed=int(rng.integers(2**31)),
    )
    matrix = generate_synthetic(instance, 6, 1800, profile)
    rng.integers(2**31)  # exact-small draws the solver's seed here
    return instance, matrix


def _cases(seed):
    rng = np.random.default_rng(seed)
    for clients in (8, 8, 9):
        yield "exact-small", _synthetic(clients, rng)
    rng = np.random.default_rng([seed, 10])
    for _ in range(3):
        yield "random", _synthetic(10, rng)
    instance = random_instance(10, seed=seed)
    times = np.full((3, 11, 11), 500, dtype=np.int64)
    times[:, range(11), range(11)] = 0
    yield "all-ties", (instance, MultiLayerMatrix(times=times, step_seconds=1200))
    times = times[:2].copy()
    times[1] //= 500
    yield "loose", (instance, MultiLayerMatrix(times=times, step_seconds=10**9))


def _priced(instance, matrix) -> int:
    """Lanes stepped through `_advance` by one oracle call."""
    advance, lanes = oracle._advance, []

    def counted(k, arcs, m):
        lanes.extend(len(arc) for arc in arcs)
        return advance(k, arcs, m)

    oracle._advance = counted
    try:
        oracle.brute_force_optimum(instance, matrix)
    finally:
        oracle._advance = advance
    return sum(lanes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name, (instance, matrix) in _cases(args.seed):
        clients = instance.n_nodes - 1
        times = []
        for _ in range(args.repeats):
            t0 = time.thread_time()
            route, sched = oracle.brute_force_optimum(instance, matrix)
            times.append(time.thread_time() - t0)
        full = sum(perm(clients, j) for j in range(1, clients + 1)) + factorial(clients)
        print(f"{name} {clients} clients: {statistics.median(times):.4f} s CPU "
              f"(median of {args.repeats}), {_priced(instance, matrix):,} of {full:,} states "
              f"priced, cost {sched.total_cost}, tour {list(route.order)}")


if __name__ == "__main__":
    main()
