"""Time `grasp.construct_route` on random instances under the n100-improve
profile (8 layers x 4,800 s, k_grasp 3, seed 1).

Each case is (clients, trials); its CPU time is this thread's `thread_time`
over one call, the median of `--repeats` calls. 200 x 30 is the long build
that bounding each step serves; 30 x 30 and 9 x 30 are short tours, whose
steps are too short to pay for bounds and are priced in full. The tdvrp
package is the one on PYTHONPATH, so the same script times any tree:

    PYTHONPATH=src python3 tools/time_construction.py
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from tdvrp.grasp import construct_route
from tdvrp.instances import random_instance
from tdvrp.synth import TrafficProfile, generate_synthetic

CASES = ((100, 1), (200, 8), (200, 30), (30, 30), (9, 30))


def _matrix(clients, seed):
    profile = TrafficProfile(
        base_speed_kmh=25.0, peak_windows=((0, 2, 1.6), (5, 8, 1.4)),
        jitter_range=(0.9, 1.2), seed=seed,
    )
    return generate_synthetic(random_instance(clients, seed=seed), 8, 4800, profile)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for clients, trials in CASES:
        matrix = _matrix(clients, args.seed)
        times, costs = [], None
        for _ in range(args.repeats):
            t0 = time.thread_time()
            _, clocks = construct_route(matrix, 3, np.random.default_rng(args.seed), trials)
            times.append(time.thread_time() - t0)
            costs = [clock[-1] for clock in clocks]
        print(f"{clients} clients x {trials} trials: {statistics.median(times):.4f} s CPU "
              f"(median of {args.repeats}), costs {costs}")


if __name__ == "__main__":
    main()
