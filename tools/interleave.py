"""Time `grasp.solve` of two source trees in one process, pairs interleaved.

Single wall-time readings of one tree spread by 1.3x or more from run to
run, far more than the few per cent a solver change moves. Interleaved
pairs in one process share the machine's state, so they resolve changes
that small. Each tree's `tdvrp` package (TREE/src/tdvrp) is imported on its
own, and each builds its own inputs. A pair times one call of each tree by
this thread's `thread_time`; even pairs run the base first and odd pairs
the head, after one untimed call of each.

The cases, at --seed:
- 9 clients: a random instance under the n100-improve profile (8 layers x
  4,800 s), default parameters;
- Paris31: the bundled instance on the README's synthetic matrix (6 layers
  x 7,200 s), default parameters;
- n100-improve: that workload's 100-client instance, matrix and parameters.

For each case it prints the two medians, head / base (the ratio of the
medians and the median of each pair's ratio), the pairs the head won (it
took less CPU), every pair's times, and whether the two trees gave the same
tour and cost. It does not gate:

    python3 tools/interleave.py --base ../parent --head . --pairs 20 --seed 1
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def _load(tree, seed):
    """`grasp.solve` of TREE/src/tdvrp and the cases, built by that tree's modules."""
    def ours(name):
        return name == "tdvrp" or name.startswith("tdvrp.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if ours(name)}
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    try:
        # the bundled instance is read through the package, so build while it imports
        tdvrp = SimpleNamespace(**{
            name: importlib.import_module(f"tdvrp.{name}")
            for name in ("grasp", "instances", "model", "synth")
        })
        return tdvrp.grasp.solve, list(_cases(tdvrp, seed))
    finally:
        sys.path.pop(0)
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _cases(tdvrp, seed):
    """(name, instance, matrix, params) of each case."""
    profile = tdvrp.synth.TrafficProfile
    n100 = profile(base_speed_kmh=25.0, peak_windows=((0, 2, 1.6), (5, 8, 1.4)),
                   jitter_range=(0.9, 1.2), seed=seed)
    instance = tdvrp.instances.random_instance(9, seed=seed)
    yield ("9 clients", instance, tdvrp.synth.generate_synthetic(instance, 8, 4800, n100),
           tdvrp.model.SolverParams(seed=seed))
    paris = profile(base_speed_kmh=22.0, peak_windows=((0, 1, 2.5), (3, 6, 1.9)),
                    jitter_range=(0.9, 1.2), seed=7)
    instance = tdvrp.instances.bundled_paris()
    yield ("Paris31", instance, tdvrp.synth.generate_synthetic(instance, 6, 7200, paris),
           tdvrp.model.SolverParams(seed=seed))
    instance = tdvrp.instances.random_instance(100, seed=seed)
    yield ("n100-improve", instance, tdvrp.synth.generate_synthetic(instance, 8, 4800, n100),
           tdvrp.model.SolverParams(n_grasp=1, k_grasp=3, n_improve=80, l_delete=10, k_del=3,
                                    k_ins=1, seed=seed))


def _solve(solve, case):
    """This thread's CPU seconds for one solve of `case`, and its (tour, cost)."""
    _, instance, matrix, params = case
    t0 = time.thread_time()
    result = solve(instance, matrix, params)
    seconds = time.thread_time() - t0
    return seconds, (result.best_route.order, result.best_schedule.total_cost)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the tree to compare against")
    parser.add_argument("--head", default=".", help="root of the tree to judge")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (base_solve, base_cases), (head_solve, head_cases) = (
        _load(tree, args.seed) for tree in (args.base, args.head))
    solves = base_solve, head_solve
    for cases in zip(base_cases, head_cases):
        results = [_solve(solve, case)[1] for solve, case in zip(solves, cases)]
        times = [[], []]
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                times[side].append(_solve(solves[side], cases[side])[0])
        base, head = (statistics.median(side) for side in times)
        # a burst of load from outside slows one side of a pair: the median of the
        # pairs' own ratios resists it better than the ratio of the medians
        paired = statistics.median(h / b for b, h in zip(*times))
        won = sum(h < b for b, h in zip(*times))
        each = " ".join(f"{b * 1e3:.1f}/{h * 1e3:.1f}" for b, h in zip(*times))
        print(f"{cases[0][0]}: base {base:.4f} s, head {head:.4f} s CPU (medians of "
              f"{args.pairs}), head/base {head / base:.4f} (median pair {paired:.4f}), head "
              f"won {won} of {args.pairs}; "
              f"{'same' if results[0] == results[1] else 'DIFFERENT'} tour and cost")
        print(f"  pairs base/head ms: {each}")


if __name__ == "__main__":
    main()
