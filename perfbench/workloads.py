"""The four benchmark workloads.

Each workload builds its inputs from the seed (`setup`), then runs whole
rounds of the same calls (`round`), every call waiting for the one before.
A round returns its timings, the operations it attempted and failed, and
figures for the detail lines; it checks every output it produces before it
returns. The runner in `run.py` decides how many rounds to run.

Why these four:
- paris31-cli is the everyday path (`tdvrp solve` and `tdvrp compare` on the
  bundled instance). Construction dominates and the kernel runs on both the
  integer layered matrix and the float averaged one.
- n100-improve is one long tour where improvement takes most of the solve,
  so it shows what paris31-cli hides: changes to improvement and to move
  evaluation on long tours.
- exact-small runs the exhaustive oracle, which evaluates whole permutations
  with no insertion machinery, and checks the solver against the optimum.
- fetch-replay runs no solver code: a two-day quota-bound fetch from a
  recorded backend, a warm rerun and a crash-resume. It moves only when the
  fetch path, the cache, validation or matrix I/O move.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass, field

import numpy as np

from tdvrp import cli, compare as compare_mod, fetch as fetch_mod, grasp, instances, model, oracle, synth
from tdvrp.model import SolverParams
from tdvrp.synth import TrafficProfile

import checks
import reference
from checks import CheckFailed
from gauge import clock  # scaled CPU time of this process: see gauge.py
from tracing import capture

# the acceptance suite's frozen 6-layer peak profile, as CLI flags
PARIS_MATRIX_FLAGS = [
    "--layers", "6", "--step-seconds", "7200", "--base-speed", "22",
    "--peak", "0:1:2.5", "--peak", "3:6:1.9", "--jitter", "0.9:1.2", "--seed", "7",
]
FETCH_EPOCH = 1_900_000_000  # layer-0 departure of every recorded fixture


@dataclass
class RoundResult:
    call_s: float  # the workload's headline call
    round_s: float  # every call of the round
    times: dict  # issue-level timings, seconds
    attempted: int
    failed: int
    figures: dict = field(default_factory=dict)  # results, not times


def run_cli(argv):
    """`tdvrp ARGV` in this process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        code = cli.main([str(a) for a in argv])
        seconds = clock() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def run_cli_ok(argv, what):
    code, out, err, seconds = run_cli(argv)
    if code != 0:
        raise CheckFailed(f"{what}: tdvrp {argv[0]} exited {code}: {err.strip()}")
    return out, seconds


def _null_span(name, **attrs):
    return contextlib.nullcontext()


class Workload:
    name = ""
    min_rounds = 1  # rounds every run completes, so per-run figures repeat
    span = staticmethod(_null_span)  # the runner swaps in Tracer.span
    matrix_json_path = None  # the matrix file the workload's CLI calls read or write
    cache_paths = ()  # element caches, as opposed to recorded fixtures

    def setup(self, work, seed):
        raise NotImplementedError

    def round(self, r) -> RoundResult:
        raise NotImplementedError

    def finish(self, traced):
        """Checks made once per run, after the rounds."""

    def final_tours(self):
        """(order, MultiLayerMatrix) pairs for timing evaluate_route."""
        return []


def _check_solve_result(result, n_nodes, layers, step, what):
    order = result.best_route.order
    checks.check_tour(order, n_nodes, what)
    sched = result.best_schedule
    checks.check_schedule(order, sched.departures, sched.total_cost, layers, step, what)
    checks.check_trace(result.cost_trace, result.params.n_grasp, sched.total_cost, what)


def _check_split(instance, matrix, params, expected, what):
    """run_grasp then improve on one RNG stream must reproduce solve."""
    rng = np.random.default_rng(params.seed)
    built = grasp.run_grasp(matrix, params, rng)
    improved = grasp.improve(built.best_route, matrix, params, rng)
    if improved.best_route.order != expected.best_route.order:
        raise CheckFailed(f"{what}: run_grasp + improve gives another tour than solve")
    if built.cost_trace + improved.cost_trace != expected.cost_trace:
        raise CheckFailed(f"{what}: run_grasp + improve gives another cost trace than solve")


# --- paris31-cli ------------------------------------------------------------


class Paris31Cli(Workload):
    name = "paris31-cli"
    seeds_per_run = 4
    min_rounds = 4

    def setup(self, work, seed):
        self.work = work
        self.instance = os.path.join(work, "paris.json")
        self.matrix = self.matrix_json_path = os.path.join(work, "matrix.json")
        run_cli_ok(["gen-instance", "--preset", "paris31", "--out", self.instance], "setup")
        run_cli_ok(["gen-matrix", "--instance", self.instance, *PARIS_MATRIX_FLAGS,
                    "--out", self.matrix], "setup")
        self.layers, self.step = reference.load_matrix_file(self.matrix)
        self.n_nodes = len(self.layers[0])
        self.solver_seeds = [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]
        self.tours = {}

    def round(self, r):
        solver_seed = self.solver_seeds[r % self.seeds_per_run]
        result_path = os.path.join(self.work, "result.json")
        rows_path = os.path.join(self.work, "rows.csv")
        with self.span("bench.solve"):
            _, t_solve = run_cli_ok(
                ["solve", "--instance", self.instance, "--matrix", self.matrix,
                 "--seed", solver_seed, "--out", result_path], "solve")
        with capture(compare_mod, "solve", lambda args, result: result) as solved:
            with self.span("bench.compare"):
                _, t_compare = run_cli_ok(
                    ["compare", "--instance", self.instance, "--matrix", self.matrix,
                     "--seeds", 1, "--seed", solver_seed, "--out", rows_path], "compare")

        with open(result_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        order = tuple(doc["route"])
        total = doc["total_cost_s"]
        checks.check_tour(order, self.n_nodes, "solve")
        checks.check_schedule(order, doc["departures_s"], total, self.layers, self.step, "solve")
        checks.check_trace(doc["cost_trace_s"], doc["params"]["n_grasp"], total, "solve")
        if self.tours.setdefault(solver_seed, order) != order:
            raise CheckFailed(f"solve: seed {solver_seed} gave another tour than in an earlier round")

        with open(rows_path, "r", encoding="utf-8") as fh:
            header, row = fh.read().splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        layered, baseline = solved
        if layered.best_route.order != order:
            raise CheckFailed("compare: layered tour differs from the same-seed solve")
        c_ml, c_2d = int(fields["c_ml_s"]), int(fields["c_2d_s"])
        checks.check_compare_row(
            (c_ml, c_2d, fields["c_2d_own_matrix_s"]), total, baseline.best_route.order,
            baseline.best_schedule.total_cost, self.layers, self.step,
        )
        return RoundResult(
            call_s=t_solve,
            round_s=t_solve + t_compare,
            times={"solve_s": t_solve, "compare_s": t_compare},
            attempted=2,
            failed=0,
            figures={"tour_cost_s": total, "layered_advantage_s": c_2d - c_ml},
        )

    def finish(self, traced):
        if traced:
            instance = model.load_instance(self.instance)
            matrix = model.load_matrix(self.matrix)
            params = SolverParams(seed=self.solver_seeds[0])
            _check_split(instance, matrix, params, grasp.solve(instance, matrix, params), "paris31")

    def final_tours(self):
        matrix = model.load_matrix(self.matrix)
        return [(order, matrix) for order in self.tours.values()]


# --- n100-improve -----------------------------------------------------------


class N100Improve(Workload):
    name = "n100-improve"
    n_clients = 100
    n_layers, step_seconds = 8, 4800

    def setup(self, work, seed):
        self.instance = instances.random_instance(self.n_clients, seed=seed)
        profile = TrafficProfile(
            base_speed_kmh=25.0, peak_windows=((0, 2, 1.6), (5, 8, 1.4)),
            jitter_range=(0.9, 1.2), seed=seed,
        )
        self.matrix = synth.generate_synthetic(
            self.instance, self.n_layers, self.step_seconds, profile)
        self.layers = self.matrix.times.tolist()
        self.params = SolverParams(
            n_grasp=1, k_grasp=3, n_improve=80, l_delete=10, k_del=3, k_ins=1, seed=seed)
        self.first = None

    def round(self, r):
        with self.span("bench.solve"):
            t0 = clock()
            result = grasp.solve(self.instance, self.matrix, self.params)
            t_solve = clock() - t0
        _check_solve_result(result, self.instance.n_nodes, self.layers, self.step_seconds, "solve")
        if self.first is None:
            self.first = result
        elif result.best_route.order != self.first.best_route.order:
            raise CheckFailed("solve: the same seed gave another tour than in round 0")
        order = result.best_route.order
        return RoundResult(
            call_s=t_solve,
            round_s=t_solve,
            times={"solve_s": t_solve},
            attempted=1,
            failed=0,
            figures={
                "tour_cost_s": result.best_schedule.total_cost,
                "construction_cost_s": result.cost_trace[0],
                "layers_used": reference.layers_used(order, self.layers, self.step_seconds),
            },
        )

    def finish(self, traced):
        if traced:
            _check_split(self.instance, self.matrix, self.params, self.first, "n100")

    def final_tours(self):
        return [(self.first.best_route.order, self.matrix)]


# --- exact-small ------------------------------------------------------------


class ExactSmall(Workload):
    name = "exact-small"
    sizes = (8, 8, 9)  # the first, smallest instance also gets the benchmark's own search
    n_layers, step_seconds = 6, 1800

    def setup(self, work, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for size in self.sizes:
            instance = instances.random_instance(size, seed=int(rng.integers(2**31)))
            profile = TrafficProfile(
                base_speed_kmh=25.0, peak_windows=((1, 3, 1.8), (4, 5, 1.3)),
                jitter_range=(0.8, 1.3), seed=int(rng.integers(2**31)),
            )
            matrix = synth.generate_synthetic(instance, self.n_layers, self.step_seconds, profile)
            params = SolverParams(seed=int(rng.integers(2**31)))
            self.cases.append((instance, matrix, matrix.times.tolist(), params))
        self.optima = None

    def round(self, r):
        t_exact = t_solve = 0.0
        optima = []
        solved = []
        for i, (instance, matrix, layers, params) in enumerate(self.cases):
            with self.span("bench.exact"):
                t0 = clock()
                opt_route, opt_sched = oracle.brute_force_optimum(instance, matrix)
                t1 = clock()
            with self.span("bench.solve"):
                t2 = clock()
                result = grasp.solve(instance, matrix, params)
                t3 = clock()
            t_exact += t1 - t0
            t_solve += t3 - t2
            what = f"instance {i}"
            _check_solve_result(result, instance.n_nodes, layers, self.step_seconds, what)
            checks.check_schedule(opt_route.order, opt_sched.departures, opt_sched.total_cost,
                                  layers, self.step_seconds, f"{what} optimum")
            checks.check_optimum(opt_route.order, opt_sched.total_cost,
                                 [result.best_schedule.total_cost], layers, self.step_seconds)
            arcs = oracle.route_to_arcs(opt_route)
            violations = oracle.check_milp_feasibility(arcs, instance.n_nodes)
            if violations:
                raise CheckFailed(f"{what}: optimum's arc encoding fails {violations[0]}")
            checks.check_arc_encoding(opt_route.order, arcs.x, arcs.u)
            optima.append((opt_route.order, opt_sched.total_cost))
            solved.append(result)
        if self.optima is None:
            self.optima, self.solved = optima, solved
        elif optima != self.optima:
            raise CheckFailed("exact: optimum differs from round 0")
        opt_total = sum(cost for _, cost in optima)
        return RoundResult(
            call_s=t_exact,
            round_s=t_exact + t_solve,
            times={"exact_solve_s": t_exact, "solve_s": t_solve},
            attempted=2 * len(self.cases),
            failed=0,
            figures={
                "optimum_cost_s": opt_total,
                "solver_excess_s": sum(r.best_schedule.total_cost for r in solved) - opt_total,
            },
        )

    def finish(self, traced):
        _, _, layers, _ = self.cases[0]
        own = reference.exhaustive_optimum(layers, self.step_seconds)
        if own != self.optima[0]:
            raise CheckFailed(f"exact: oracle optimum {self.optima[0]} != own search {own}")
        if traced:
            instance, matrix, _, params = self.cases[0]
            _check_split(instance, matrix, params, self.solved[0], "exact")

    def final_tours(self):
        tours = []
        for (_, matrix, _, _), (order, _), result in zip(self.cases, self.optima, self.solved):
            tours += [(order, matrix), (result.best_route.order, matrix)]
        return tours


# --- fetch-replay -----------------------------------------------------------

PLAN_LINE = re.compile(
    r"plan: (\d+) requests, \d+ elements \((\d+) billed incl\. self-pairs\), "
    r"days needed at quota (\d+): (\d+)"
)


def _write_fixture(path, source, step):
    """Recorded-backend fixture: every off-diagonal element, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, layer in enumerate(source):
            t = FETCH_EPOCH + s * step
            for o, row in enumerate(layer):
                fh.writelines(
                    f'{{"o": {o}, "d": {d}, "t": {t}, "s": {v}}}\n'
                    for d, v in enumerate(row) if d != o
                )


def _billed(args, result):
    return len(args[1]) * len(args[2])


class FetchReplay(Workload):
    name = "fetch-replay"
    n_clients = 100
    n_layers, step_seconds = 12, 3600
    daily_quota = fetch_mod.PAID_DAILY_QUOTA

    def setup(self, work, seed):
        instance = instances.random_instance(self.n_clients, seed=seed)
        profile = TrafficProfile(
            base_speed_kmh=25.0, peak_windows=((1, 3, 1.7), (8, 11, 1.5)),
            jitter_range=(0.9, 1.2), seed=seed,
        )
        matrix = synth.generate_synthetic(instance, self.n_layers, self.step_seconds, profile)
        self.source = matrix.times.tolist()
        self.n_nodes = instance.n_nodes
        self.instance = os.path.join(work, "instance.json")
        model.save_instance(instance, self.instance)
        self.fixture = os.path.join(work, "recorded.jsonl")
        _write_fixture(self.fixture, self.source, self.step_seconds)
        self.cache = os.path.join(work, "cache.jsonl")
        self.cache_paths = (self.cache,)
        self.out = self.matrix_json_path = os.path.join(work, "fetched.json")
        self.args = [
            "fetch", "--instance", self.instance, "--layers", self.n_layers,
            "--step-seconds", self.step_seconds, "--start-epoch", FETCH_EPOCH,
            "--backend", "recorded", "--recorded", self.fixture, "--cache", self.cache,
            "--daily-quota", self.daily_quota, "--out", self.out,
        ]
        self._setup_crash(work)

    def _setup_crash(self, work):
        """Crash-resume inputs, the same for every seed: Paris31 under the
        frozen profile, fetched once to a complete cache."""
        crash_instance = os.path.join(work, "paris.json")
        crash_matrix = os.path.join(work, "paris-source.json")
        run_cli_ok(["gen-instance", "--preset", "paris31", "--out", crash_instance], "setup")
        run_cli_ok(["gen-matrix", "--instance", crash_instance, *PARIS_MATRIX_FLAGS,
                    "--out", crash_matrix], "setup")
        self.crash_source, self.crash_step = reference.load_matrix_file(crash_matrix)
        fixture = os.path.join(work, "paris-recorded.jsonl")
        _write_fixture(fixture, self.crash_source, self.crash_step)
        self.crash_full = os.path.join(work, "paris-cache-full.jsonl")
        self.crash_cache = os.path.join(work, "paris-cache.jsonl")
        self.crash_out = os.path.join(work, "paris-fetched.json")
        self.crash_args = [
            "fetch", "--instance", crash_instance, "--layers", len(self.crash_source),
            "--step-seconds", self.crash_step, "--start-epoch", FETCH_EPOCH,
            "--backend", "recorded", "--recorded", fixture, "--cache", self.crash_cache,
            "--daily-quota", self.daily_quota, "--out", self.crash_out,
        ]
        run_cli_ok(self.crash_args, "setup")
        checks.check_cache_file(self.crash_cache, self.crash_source, self.crash_step, FETCH_EPOCH)
        os.replace(self.crash_cache, self.crash_full)

    def _fetched(self, path):
        layers, step = reference.load_matrix_file(path)
        if step != self.step_seconds:
            raise CheckFailed(f"fetched matrix has step {step}, expected {self.step_seconds}")
        return layers

    def round(self, r):
        if os.path.exists(self.cache):
            os.remove(self.cache)
        # cold fetch: day after day until the plan completes
        t_fetch = 0.0
        queries_per_day = []
        billed = 0
        with self.span("bench.cold_fetch"):
            while True:
                with capture(fetch_mod.RecordedBackend, "query", _billed) as day_billed:
                    code, out, err, seconds = run_cli(self.args)
                t_fetch += seconds
                queries_per_day.append(len(day_billed))
                billed += sum(day_billed)
                if len(queries_per_day) == 1:
                    plan = PLAN_LINE.search(out)
                if code == 0:
                    break
                if code != 3 or "quota exhausted" not in err:
                    raise CheckFailed(f"fetch day {len(queries_per_day)} exited {code}: {err.strip()}")
                if len(queries_per_day) > 10:
                    raise CheckFailed("fetch: no progress after 10 days")
        if plan is None:
            raise CheckFailed("fetch: no plan line in the output")
        planned = int(plan.group(1))
        checks.check_fetch_counts(
            int(plan.group(2)), billed, self.n_layers, self.n_nodes,
            int(plan.group(3)), int(plan.group(4)), len(queries_per_day),
        )
        checks.check_matrix_equal(self._fetched(self.out), self.source)
        checks.check_cache_file(self.cache, self.source, self.step_seconds, FETCH_EPOCH)
        cache_bytes = os.path.getsize(self.cache)

        with capture(fetch_mod.RecordedBackend, "query", _billed) as warm_billed:
            with self.span("bench.warm_fetch"):
                _, t_warm = run_cli_ok(self.args, "warm rerun")
        if warm_billed:
            raise CheckFailed(f"warm rerun sent {len(warm_billed)} backend queries")
        checks.check_matrix_equal(self._fetched(self.out), self.source)

        with self.span("bench.crash_resume"):
            t0 = clock()
            crash_error = self._crash_resume()
            t_crash = clock() - t0
        figures = {
            "cache_bytes": cache_bytes,
            "days": len(queries_per_day),
            "requests": planned,
            "resume_hit_ratio": (planned - queries_per_day[-1]) / planned,
        }
        if crash_error:
            figures["crash_resume_error"] = crash_error
        return RoundResult(
            call_s=t_fetch,
            round_s=t_fetch + t_warm + t_crash,
            times={"fetch_s": t_fetch, "resume_s": t_warm, "crash_resume_s": t_crash},
            attempted=3,
            failed=1 if crash_error else 0,
            figures=figures,
        )

    def _crash_resume(self):
        """Cut a complete cache in the middle of a record, as a kill
        mid-write leaves it, rerun the fetch, then rerun it warm. Returns why
        it failed, or None."""
        shutil.copyfile(self.crash_full, self.crash_cache)
        with open(self.crash_cache, "r+b") as fh:
            data = fh.read()
            line_start = data.rfind(b"\n", 0, len(data) // 2) + 1
            line_end = data.index(b"\n", line_start)
            fh.truncate(line_start + (line_end - line_start) // 2)
        code, _, err, _ = run_cli(self.crash_args)
        if code != 0:
            return f"rerun over a torn cache exited {code}: {err.strip()}"
        layers, _ = reference.load_matrix_file(self.crash_out)
        try:
            checks.check_matrix_equal(layers, self.crash_source, "resumed matrix")
        except CheckFailed as exc:
            return str(exc)
        with capture(fetch_mod.RecordedBackend, "query", _billed) as warm:
            code, _, err, _ = run_cli(self.crash_args)
        if code != 0 or warm:
            return f"warm rerun after resume exited {code} with {len(warm)} queries"
        try:
            checks.check_cache_file(self.crash_cache, self.crash_source, self.crash_step,
                                    FETCH_EPOCH, repeats_ok=True)
        except CheckFailed as exc:
            return str(exc)
        return None


WORKLOADS = {w.name: w for w in (Paris31Cli, N100Improve, ExactSmall, FetchReplay)}
