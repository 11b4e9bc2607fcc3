"""Benchmark of the tdvrp package: four workloads, end to end and per layer.

Run one workload:

    python3 perfbench/run.py --workload paris31-cli --seed 1 --seconds 25 --trace 0

or every workload, each in its own process, one after the other:

    python3 perfbench/run.py --seed 1 --seconds 25 [--trace 1]

A workload runs single-threaded as a closed loop: one caller, every call
waiting for the previous one. It sets up its inputs from the seed three
times (set-up time is the median), then runs whole rounds for about
--seconds, and at least its minimum number of rounds, checking every
output. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 each round runs once untraced and once
traced, and the metrics are the per-layer ones (see layers.py), including
the tracing overhead. Lines before it starting with "detail" give the
workload's own figures (solve_s, fetch_s, tour_cost_s, ...).

Every time is taken as CPU time (user + system) of the process doing the
work. The calls measured are single-threaded and CPU-bound, so on an idle
host it equals wall time; on a shared host wall time also counts the time
the hypervisor gives to other tenants. `wall_over_cpu` shows the gap. The
end-to-end times are then scaled to a reference speed of the host, measured
beside the work by the gauge in gauge.py; `speed_factor` shows the run's
factor (CPU time over scaled time).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

WORKLOADS = ("paris31-cli", "n100-improve", "exact-small", "fetch-replay")
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "call_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}
SETUPS = 3


def _children_cpu() -> float:
    """CPU time of the finished child processes."""
    t = os.times()
    return t.children_user + t.children_system


def _import_seconds() -> float:
    """CPU time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = _children_cpu()
    subprocess.run([sys.executable, "-c", "import tdvrp.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return _children_cpu() - t0


def _summarise(values):
    """Per-run figure: the mean over the rounds every run completes."""
    if all(v == values[0] for v in values) or not isinstance(values[0], (int, float)):
        return values[0]
    return sum(values) / len(values)


def run_workload(name, seed, seconds, trace):
    sys.path[:0] = [str(SRC), str(HERE)]
    import tdvrp

    if Path(tdvrp.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"tdvrp was imported from {tdvrp.__file__}, not from {SRC}")
    import gauge
    import layers
    import tracing
    import workloads
    from checks import CheckFailed

    workload = workloads.WORKLOADS[name]()
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    setup_s, setup_roots, round_roots = [], [], []
    plain, traced = [], []
    correct = True
    try:
        for i in range(SETUPS):
            work = run_dir / f"setup-{i}"
            work.mkdir(parents=True)
            t_import = _import_seconds()
            t0 = process_time()
            if tracer:
                with tracer.installed(), tracer.span("setup") as root:
                    workload.setup(str(work), seed)
                setup_roots.append(root)
            else:
                workload.setup(str(work), seed)
            t_setup = t_import + process_time() - t0
            setup_s.append(t_setup / gauge.measure(t_setup))

        start, start_cpu, start_reading = perf_counter(), process_time(), gauge.clock()
        r, last = 0, 0.0
        # a round starts only if it should end nearer the deadline than the
        # round before did, so a run lasts about --seconds, not up to a round more
        while r < workload.min_rounds or perf_counter() - start + last / 2 < seconds:
            t_round = perf_counter()
            # the traced run measures per-layer times, unscaled and without the gauge
            with contextlib.nullcontext() if tracer else gauge.interleaved():
                plain.append(workload.round(r))
            if tracer:
                workload.span = tracer.span
                try:
                    with tracer.installed(), tracer.span("round", index=r) as root:
                        traced.append(workload.round(r))
                finally:
                    del workload.span
                round_roots.append(root)
            last = perf_counter() - t_round
            r += 1
        wall_over_cpu = (perf_counter() - start) / (process_time() - start_cpu)
        speed_factor = gauge.factor(start_reading, gauge.clock())
        workload.finish(traced=bool(tracer))
    except CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    runs = plain + traced
    result = {
        "correct": correct,
        "attempted": sum(x.attempted for x in runs),
        "failed": sum(x.failed for x in runs),
        "metrics": {},
    }
    if correct:
        kept = plain[: workload.min_rounds]
        for key in plain[0].times:
            print(f"detail {key} {statistics.median(x.times[key] for x in plain)!r} s")
        for key in plain[0].figures:
            print(f"detail {key} {_summarise([x.figures.get(key) for x in kept])!r}")
        print(f"detail rounds {len(plain)}")
        print(f"detail wall_over_cpu {wall_over_cpu!r}")
        if tracer:
            index = tracing.SpanIndex(tracer.spans)
            values = layers.per_layer_metrics(
                index, setup_roots, round_roots, workload, [x.figures for x in traced],
                statistics.median(x.round_s for x in plain),
                statistics.median(x.round_s for x in traced),
            )
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
            tracer.write(WORK / f"trace-{name}.json")
        else:
            print(f"detail speed_factor {speed_factor!r}")
            values = {
                "setup_s": statistics.median(setup_s),
                "call_s": statistics.median(x.call_s for x in plain),
                "round_s": statistics.median(x.round_s for x in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints each metric by name and unit."""
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (seed {seed}, {seconds} s, trace {trace})")
        if proc.returncode != 0 or not lines:
            print(f"   failed with exit code {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        print(f"   correct {result['correct']}, operations attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}")
        for line in lines[:-1]:
            if line.startswith("detail "):
                print(f"   {line}")
        if proc.stderr.strip():
            print(f"   stderr: {proc.stderr.strip()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=25, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        run_all(args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
