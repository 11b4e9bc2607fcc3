"""Command-line front end.

Subcommands: gen-instance, gen-matrix, fetch, solve, compare, export-geojson.
Exit codes: 0 success, 2 input error (a bad or unreadable input file, an
unwritable output path, a bad argument), 3 backend error, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fetch as fetch_mod
from .compare import format_hm, report_csv, report_table, run_compare
from .errors import BackendError, InputError, InvariantError, TdvrpError
from .export import route_geojson
from .grasp import result_from_json, result_to_json, solve
from .instances import bundled_paris, random_instance
from .model import (
    SolverParams,
    _read_text,
    _write_text,
    load_instance,
    load_matrix,
    save_instance,
    save_matrix,
    validate_matrix,
)
from .synth import TrafficProfile, generate_synthetic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3
EXIT_INVARIANT = 4


# the SolverParams fields that solve and compare take as flags, with their help
_PARAM_HELP = {
    "seed": "RNG seed",
    "n_grasp": "construction trials",
    "k_grasp": "insertion candidate pool",
    "n_improve": "improvement rounds",
    "l_delete": "nodes deleted per round",
    "k_del": "deletion candidate pool",
    "k_ins": "reinsertion candidate pool",
}


def _add_params_flags(parser):
    defaults = SolverParams()
    for name, help_text in _PARAM_HELP.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=int, default=getattr(defaults, name), help=help_text)


def _params_from(args) -> SolverParams:
    return SolverParams(**{name: getattr(args, name) for name in _PARAM_HELP})


def _profile_from(args) -> TrafficProfile:
    peaks = []
    for raw in args.peak or []:
        try:
            start, end, mult = raw.split(":")
            peaks.append((int(start), int(end), float(mult)))
        except ValueError:
            raise InputError(f"bad --peak '{raw}', expected START:END:MULT")
    try:
        lo, hi = (float(v) for v in args.jitter.split(":"))
    except ValueError:
        raise InputError(f"bad --jitter '{args.jitter}', expected LO:HI")
    return TrafficProfile(
        base_speed_kmh=args.base_speed,
        peak_windows=tuple(peaks),
        jitter_range=(lo, hi),
        seed=args.seed,
    )


def _add_profile_flags(parser):
    parser.add_argument("--base-speed", type=float, default=25.0, help="free-flow km/h")
    parser.add_argument(
        "--peak",
        action="append",
        metavar="START:END:MULT",
        help="congestion window over layers [START, END), repeatable",
    )
    parser.add_argument("--jitter", default="1.0:1.0", metavar="LO:HI",
                        help="per-direction multiplicative jitter range")


def cmd_gen_instance(args) -> int:
    if args.preset == "paris31":
        instance = bundled_paris()
    else:
        instance = random_instance(args.clients, seed=args.seed)
    save_instance(instance, args.out)
    print(f"wrote {instance.n_nodes}-node instance to {args.out}")
    return EXIT_OK


def cmd_gen_matrix(args) -> int:
    instance = load_instance(args.instance)
    matrix = generate_synthetic(instance, args.layers, args.step_seconds, _profile_from(args))
    save_matrix(matrix, args.out)
    report = validate_matrix(matrix)
    print(f"wrote {matrix.n_layers}x{matrix.n_nodes}x{matrix.n_nodes} matrix to {args.out}")
    print(report.summary())
    return EXIT_OK


def cmd_fetch(args) -> int:
    instance = load_instance(args.instance)
    plan = fetch_mod.plan_fetch(
        instance.n_nodes,
        args.layers,
        step_seconds=args.step_seconds,
        start_epoch=args.start_epoch,
        elements_per_request_limit=args.per_request_limit,
        daily_quota=args.daily_quota,
    )
    print(
        f"plan: {len(plan.requests)} requests, {plan.total_elements} elements "
        f"({plan.quota_elements} billed incl. self-pairs), "
        f"days needed at quota {plan.daily_quota}: {plan.days_needed}"
    )
    if args.backend == "synthetic":
        # offline replay of a generated matrix: it bills nothing, so no quota
        source = generate_synthetic(instance, args.layers, args.step_seconds, _profile_from(args))
        client = fetch_mod.RecordedBackend.from_matrix(instance, source, plan.start_epoch)
        budget = None
    else:
        if args.backend == "recorded":
            if not args.recorded:
                raise InputError("--recorded FILE is required with --backend recorded")
            client = fetch_mod.RecordedBackend.from_file(instance, args.recorded)
        else:
            client = fetch_mod.LiveBackend(instance, api_key=args.api_key)
        budget = fetch_mod.QuotaBudget(daily_quota=args.daily_quota)
    matrix = fetch_mod.execute_fetch(plan, client, instance, cache_path=args.cache, budget=budget)
    if budget is not None:
        print(f"quota usage: {budget.elements_used}/{budget.daily_quota} elements")
    report = validate_matrix(matrix)
    save_matrix(matrix, args.out)
    print(f"wrote matrix to {args.out}")
    print(report.summary())
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    matrix = load_matrix(args.matrix)
    result = solve(instance, matrix, _params_from(args))
    if args.out:
        _write_text(args.out, result_to_json(result) + "\n")
    sched = result.best_schedule
    print(f"tour: 0 -> {' -> '.join(str(v) for v in result.best_route.order)} -> 0")
    print(f"total driving time: {format_hm(sched.total_cost)} ({int(sched.total_cost)} s)")
    n_grasp = result.params.n_grasp
    construction = result.cost_trace[:n_grasp]
    improvement = result.cost_trace[n_grasp:]
    print(
        f"trace: best of {n_grasp} constructions {format_hm(min(construction))}, "
        f"after {len(improvement)} improvement rounds {format_hm(sched.total_cost)}"
    )
    if args.out:
        print(f"wrote result to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    instance = load_instance(args.instance)
    matrix = load_matrix(args.matrix)
    report = run_compare(instance, matrix, _params_from(args), args.seeds)
    if args.out:
        _write_text(args.out, report_csv(report))
        print(f"wrote per-seed rows to {args.out}")
    print(report_table(report))
    return EXIT_OK


def cmd_export_geojson(args) -> int:
    instance = load_instance(args.instance)
    doc = result_from_json(_read_text(args.result))
    geo = route_geojson(doc["route"], doc["departures_s"], instance)
    _write_text(args.out, json.dumps(geo) + "\n")
    print(f"wrote {len(geo['features'])} features to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdvrp",
        description="Single-vehicle routing on time-dependent travel-time matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-instance", help="write an instance file")
    p.add_argument("--clients", type=int, default=30)
    p.add_argument("--preset", choices=["paris31"], help="bundled instance instead of random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("gen-matrix", help="generate a synthetic traffic matrix")
    p.add_argument("--instance", required=True)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--step-seconds", type=int, default=7200)
    p.add_argument("--seed", type=int, default=0)
    _add_profile_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_matrix)

    p = sub.add_parser("fetch", help="build a matrix through a provider backend")
    p.add_argument("--instance", required=True)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--step-seconds", type=int, default=7200)
    p.add_argument("--start-epoch", type=int, help="layer-0 departure (default: now + 14 days)")
    p.add_argument("--backend", choices=["live", "recorded", "synthetic"], default="synthetic")
    p.add_argument("--recorded", help="JSONL fixture for the recorded backend")
    p.add_argument("--api-key", help="live backend key (else GOOGLE_MAPS_API_KEY)")
    p.add_argument("--cache", help="element cache path (JSONL, append-only)")
    p.add_argument("--daily-quota", type=int, default=fetch_mod.FREE_DAILY_QUOTA)
    p.add_argument("--per-request-limit", type=int, default=fetch_mod.DEFAULT_ELEMENTS_PER_REQUEST)
    p.add_argument("--seed", type=int, default=0)
    _add_profile_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("solve", help="optimize a tour")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    _add_params_flags(p)
    p.add_argument("--out", help="result JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="multi-layer vs time-averaged baseline over seeds")
    p.add_argument("--instance", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--seeds", type=int, default=20, help="number of runs (seed, seed+1, ...)")
    _add_params_flags(p)
    p.add_argument("--out", help="CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-geojson", help="result file to GeoJSON FeatureCollection")
    p.add_argument("--result", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_geojson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (TdvrpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
