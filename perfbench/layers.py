"""Per-layer metrics, derived from the spans of a traced run.

Unless its name says otherwise, a `_s` metric is the time a round spends in
that function (inclusive, or self time where noted), and a count is per
round; both are medians over the traced rounds. A workload that never
enters a layer reports 0 for it. `grasp.improve_moves` is computed from
route length and params, not counted.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

from tdvrp import model

# name -> (unit, better)
PER_LAYER = {
    "model.evaluate_route_us": ("us", "lower"),
    "model.average_matrix_s": ("s", "lower"),
    "model.validate_matrix_s": ("s", "lower"),
    "model.save_matrix_s": ("s", "lower"),
    "model.load_matrix_s": ("s", "lower"),
    "model.matrix_json_bytes": ("bytes", "lower"),
    "grasp.run_grasp_s": ("s", "lower"),
    "grasp.construct_route_s": ("s", "lower"),
    "grasp.enumerate_insertions_s": ("s", "lower"),
    "grasp.enumerate_insertions_calls": ("count", "lower"),
    "grasp.candidates": ("count", "lower"),
    "grasp.candidate_ns": ("ns", "lower"),
    "grasp.improve_s": ("s", "lower"),
    "grasp.improve_round_ms": ("ms", "lower"),
    "grasp.improve_moves": ("count", "lower"),
    "compare.layered_solve_s": ("s", "lower"),
    "compare.baseline_solve_s": ("s", "lower"),
    "compare.reprice_s": ("s", "lower"),
    "oracle.brute_force_s": ("s", "lower"),
    "oracle.permutations": ("count", "lower"),
    "oracle.permutation_ns": ("ns", "lower"),
    "fetch.plan_s": ("s", "lower"),
    "fetch.requests": ("count", "lower"),
    "fetch.backend_queries": ("count", "lower"),
    "fetch.elements_billed": ("count", "lower"),
    "fetch.days": ("count", "lower"),
    "fetch.query_s": ("s", "lower"),
    "fetch.execute_self_s": ("s", "lower"),
    "fetch.cache_read_s": ("s", "lower"),
    "fetch.resume_hit_ratio": ("ratio", "higher"),
    "fetch.cache_bytes": ("bytes", "lower"),
    "synth.generate_synthetic_s": ("s", "lower"),
    "synth.min_plus_closure_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

EVALUATE_CALLS = 400  # per final tour


def _total(spans):
    return float(sum(s.seconds for s in spans))


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _round_values(index, root, cache_paths):
    def under(name, parent=root):
        return index.descendants(parent, name)

    v = {
        "model.average_matrix_s": _total(under("model.average_matrix")),
        "model.validate_matrix_s": _total(under("model.validate_matrix")),
        "model.save_matrix_s": _total(under("model.save_matrix")),
        "model.load_matrix_s": _total(under("model.load_matrix")),
        "grasp.run_grasp_s": _total(under("grasp.run_grasp")),
        "grasp.construct_route_s": _total(under("grasp.construct_route")),
    }

    inserts = under("grasp.enumerate_insertions")
    insert_self = sum(index.self_seconds(s) for s in inserts)
    candidates = sum(s.attrs["candidates"] for s in inserts)
    v["grasp.enumerate_insertions_s"] = insert_self
    v["grasp.enumerate_insertions_calls"] = len(inserts)
    v["grasp.candidates"] = candidates
    v["grasp.candidate_ns"] = _ratio(insert_self, candidates, 1e9)

    improves = under("grasp.improve")
    improve_s = _total(improves)
    v["grasp.improve_s"] = improve_s
    v["grasp.improve_round_ms"] = _ratio(improve_s, sum(s.attrs["rounds"] for s in improves), 1e3)
    v["grasp.improve_moves"] = sum(s.attrs["moves"] for s in improves)

    layered = baseline = reprice = 0.0
    for run in under("compare.run_compare"):
        for s in index.descendants(run, "grasp.solve"):
            if s.attrs["layers"] > 1:
                layered += s.seconds
            else:
                baseline += s.seconds
        reprice += _total(index.descendants(run, "model.evaluate_route"))
    v["compare.layered_solve_s"] = layered
    v["compare.baseline_solve_s"] = baseline
    v["compare.reprice_s"] = reprice

    exact = under("oracle.brute_force_optimum")
    permutations = sum(s.attrs["permutations"] for s in exact)
    v["oracle.brute_force_s"] = _total(exact)
    v["oracle.permutations"] = permutations
    v["oracle.permutation_ns"] = _ratio(_total(exact), permutations, 1e9)

    plans, queries, executes, days = [], [], [], []
    for cold in under("bench.cold_fetch"):
        plans += index.descendants(cold, "fetch.plan_fetch")
        queries += index.descendants(cold, "fetch.query")
        executes += index.descendants(cold, "fetch.execute_fetch")
        days += index.descendants(cold, "cli.main")
    v["fetch.plan_s"] = _total(plans)
    v["fetch.requests"] = plans[0].attrs["requests"] if plans else 0
    v["fetch.backend_queries"] = len(queries)
    v["fetch.elements_billed"] = sum(s.attrs["billed"] for s in queries)
    v["fetch.days"] = len(days)
    v["fetch.query_s"] = _total(queries)
    v["fetch.execute_self_s"] = sum(index.self_seconds(s) for s in executes)
    v["fetch.cache_read_s"] = sum(
        s.seconds
        for warm in under("bench.warm_fetch")
        for s in index.descendants(warm, "fetch.read_cache_file")
        if s.attrs["path"] in cache_paths
    )
    return v


def _evaluate_route_us(tours):
    if not tours:
        return 0.0
    t0 = perf_counter()
    for order, matrix in tours:
        for _ in range(EVALUATE_CALLS):
            model.evaluate_route(order, matrix)
    return 1e6 * (perf_counter() - t0) / (EVALUATE_CALLS * len(tours))


def per_layer_metrics(index, setup_roots, round_roots, workload, figures, plain_round_s,
                      traced_round_s):
    """Every per-layer metric of one traced run, as {name: value}.

    `plain_round_s` and `traced_round_s` are the median round times of the
    same rounds run untraced and traced."""
    rounds = [_round_values(index, root, workload.cache_paths) for root in round_roots]
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}

    for name, fn in (("synth.generate_synthetic_s", "synth.generate_synthetic"),
                     ("synth.min_plus_closure_s", "synth.min_plus_closure")):
        values[name] = statistics.median(_total(index.descendants(r, fn)) for r in setup_roots)

    path = workload.matrix_json_path
    values["model.matrix_json_bytes"] = os.path.getsize(path) if path else 0
    values["fetch.resume_hit_ratio"] = statistics.median(
        f.get("resume_hit_ratio", 0.0) for f in figures)
    values["fetch.cache_bytes"] = statistics.median(f.get("cache_bytes", 0) for f in figures)
    values["model.evaluate_route_us"] = _evaluate_route_us(workload.final_tours())
    values["trace.overhead_pct"] = 100.0 * (traced_round_s / plain_round_s - 1.0)
    return {name: values[name] for name in PER_LAYER}
