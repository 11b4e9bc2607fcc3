"""Print a bit-exact fingerprint of solver results.

Every case runs `run_grasp` and then `improve` on one seeded generator, as
`solve` does, and prints the tours, costs, departures and cost traces (each
number as its Python type and `float.hex`) and the generator state after each
phase. Two trees whose outputs match byte for byte produce the same results.

Cases: Paris31 on its layered synthetic matrix (seeds 0-3) and on the
time-averaged one (seeds 0-1), the 100-client improvement-heavy parameters
(seeds 1-3), 20 random 1-13-client matrices with random parameters, and
three 40-client integer matrices that take the solver's layer runs to their
edges: one layer (every lane finishes in one run), four layers at a step of
1 s (every departure past the horizon), and clients that share their
location with the depot or another client (arcs of 0 s). Last, the exact
optimum `brute_force_optimum` finds on five random 6-9-client matrices:
layered integer and fractional ones, one with every departure past the
horizon, a one-layer integer one and a time-averaged one (one float layer).

    PYTHONPATH=src python3 tools/fingerprint.py > fingerprint.txt
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace

import numpy as np

from tdvrp.grasp import improve, run_grasp
from tdvrp.instances import bundled_paris, random_instance
from tdvrp.model import Instance, MultiLayerMatrix, SolverParams, average_matrix
from tdvrp.oracle import brute_force_optimum
from tdvrp.synth import TrafficProfile, generate_synthetic


def _num(v) -> str:
    return f"{type(v).__name__}:{float(v).hex()}"


def _nums(values) -> str:
    return " ".join(_num(v) for v in values)


def _phase(name, result, rng) -> list[str]:
    return [
        f"  {name} tour {' '.join(str(int(v)) for v in result.best_route.order)}",
        f"  {name} cost {_num(result.best_schedule.total_cost)}",
        f"  {name} departures {_nums(result.best_schedule.departures)}",
        f"  {name} trace {_nums(result.cost_trace)}",
        f"  {name} rng {json.dumps(rng.bit_generator.state, sort_keys=True)}",
    ]


def fingerprint(name, matrix: MultiLayerMatrix, params: SolverParams) -> list[str]:
    rng = np.random.default_rng(params.seed)
    built = run_grasp(matrix, params, rng)
    lines = [f"{name} {params}", *_phase("run_grasp", built, rng)]
    improved = improve(built.best_route, matrix, params, rng)
    return lines + _phase("improve", improved, rng)


def cases():
    paris = generate_synthetic(
        bundled_paris(), 6, 7200,
        TrafficProfile(22.0, ((0, 1, 2.5), (3, 6, 1.9)), (0.9, 1.2), seed=7),
    )
    for seed in range(4):
        yield f"paris31-layered-{seed}", paris, SolverParams(seed=seed)
    averaged = average_matrix(paris)
    for seed in range(2):
        yield f"paris31-averaged-{seed}", averaged, SolverParams(seed=seed)

    for seed in (1, 2, 3):
        instance = random_instance(100, seed=seed)
        profile = TrafficProfile(25.0, ((0, 2, 1.6), (5, 8, 1.4)), (0.9, 1.2), seed=seed)
        params = SolverParams(
            n_grasp=1, k_grasp=3, n_improve=80, l_delete=10, k_del=3, k_ins=1, seed=seed)
        yield f"n100-improve-{seed}", generate_synthetic(instance, 8, 4800, profile), params

    draw = np.random.default_rng(2024)
    for case in range(20):
        clients = 1 + case % 13
        n = clients + 1
        high, layers = int(draw.choice([4, 2000])), int(draw.integers(1, 5))
        times = draw.integers(0, high, size=(layers, n, n))
        times[:, range(n), range(n)] = 0  # a node is 0 s from itself
        if draw.random() < 0.5:
            times = times / 3.0
        matrix = MultiLayerMatrix(times=times, step_seconds=int(draw.choice([1, 7, 150, 900, 3600])))
        params = SolverParams(
            n_grasp=int(draw.integers(1, 5)),
            k_grasp=int(draw.integers(1, 5)),
            n_improve=int(draw.integers(0, 31)),
            l_delete=int(draw.integers(1, clients + 1)),
            k_del=int(draw.integers(1, 5)),
            k_ins=int(draw.integers(1, 4)),
            seed=int(draw.integers(0, 2**63)),
        )
        yield f"random-{case}", matrix, params

    forty = random_instance(40, seed=40)
    params = SolverParams(n_grasp=4, n_improve=30, l_delete=8, seed=40)
    profile = TrafficProfile(25.0, ((1, 3, 1.7),), (0.9, 1.2), seed=40)
    yield "forty-one-layer", generate_synthetic(forty, 1, 3600, profile), params
    four = generate_synthetic(forty, 4, 3600, profile)
    yield "forty-step-1s", MultiLayerMatrix(times=four.times, step_seconds=1), params
    # clients 31-40 stand on the depot and on clients 1-9
    nodes = forty.nodes
    shared = [replace(node, lat=at.lat, lon=at.lon) for node, at in zip(nodes[31:], nodes)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warning about coincident nodes
        coincident = generate_synthetic(Instance(nodes[:31] + tuple(shared)), 6, 7200, profile)
    yield "forty-coincident", coincident, params


def oracle_cases():
    draw = np.random.default_rng(2025)
    for case, (clients, layers, step, kind) in enumerate([
        (6, 3, 900, "int"),
        (7, 4, 150, "fractional"),
        (8, 3, 1, "int"),
        (8, 1, 3600, "int"),
        (9, 4, 900, "averaged"),
    ]):
        n = clients + 1
        times = draw.integers(0, 2000, size=(layers, n, n))
        times[:, range(n), range(n)] = 0
        matrix = MultiLayerMatrix(times=times / 3.0 if kind == "fractional" else times,
                                  step_seconds=step)
        if kind == "averaged":
            matrix = average_matrix(matrix)
        yield f"oracle-{case} {clients} clients {layers} layers {kind} step {step}", matrix


def oracle_fingerprint(name, matrix: MultiLayerMatrix) -> list[str]:
    route, schedule = brute_force_optimum(random_instance(matrix.n_nodes - 1), matrix)
    return [
        name,
        f"  oracle tour {' '.join(str(v) for v in route.order)}",
        f"  oracle cost {_num(schedule.total_cost)}",
        f"  oracle departures {_nums(schedule.departures)}",
    ]


def main() -> None:
    for name, matrix, params in cases():
        print("\n".join(fingerprint(name, matrix, params)))
    for name, matrix in oracle_cases():
        print("\n".join(oracle_fingerprint(name, matrix)))


if __name__ == "__main__":
    main()
