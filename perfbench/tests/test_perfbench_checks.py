"""Tests of the benchmark's own reference code, checks and tracer.

Each correctness check is fed one corrupted output and must reject it:
two tour nodes swapped, one departure off by a second, one matrix element
altered, one cache line dropped. Run with:

    python3 -m pytest perfbench/tests
"""

import signal
import sys
from pathlib import Path
from time import process_time

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tdvrp import fetch, grasp, model, oracle  # noqa: E402
from tdvrp.instances import random_instance  # noqa: E402
from tdvrp.model import SolverParams  # noqa: E402
from tdvrp.synth import TrafficProfile, generate_synthetic  # noqa: E402

import checks  # noqa: E402
import gauge  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402

EPOCH = 1_900_000_000
PROFILE = TrafficProfile(peak_windows=((1, 3, 1.8),), jitter_range=(0.8, 1.3), seed=3)


@pytest.fixture(scope="module")
def small():
    instance = random_instance(7, seed=5)
    matrix = generate_synthetic(instance, 5, 1200, PROFILE)
    result = grasp.solve(instance, matrix, SolverParams(seed=2))
    return instance, matrix, matrix.times.tolist(), result


# --- reference against the package -------------------------------------------


def test_reference_schedule_equals_evaluate_route_on_int_and_averaged_matrices():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        times = rng.integers(30, 4000, size=(int(rng.integers(1, 7)), n, n))
        for layer in times:
            np.fill_diagonal(layer, 0)
        step = int(rng.integers(200, 5000))
        matrix = model.MultiLayerMatrix(times=times, step_seconds=step)
        order = [int(v) for v in rng.permutation(range(1, n))]
        for m, (layers, s) in (
            (matrix, (times.tolist(), step)),
            (model.average_matrix(matrix), reference.averaged(times.tolist(), step)),
        ):
            sched = model.evaluate_route(order, m)
            departures, total = reference.schedule(order, layers, s)
            assert list(sched.departures) == departures
            assert sched.total_cost == total


def test_reference_exhaustive_search_equals_oracle(small):
    instance, matrix, layers, _ = small
    route, sched = oracle.brute_force_optimum(instance, matrix)
    assert reference.exhaustive_optimum(layers, matrix.step_seconds) == (
        route.order, sched.total_cost)


# --- each check accepts the real output and rejects a corrupted one ---------


def test_schedule_check_rejects_two_swapped_tour_nodes(small):
    _, matrix, layers, result = small
    order = list(result.best_route.order)
    sched = result.best_schedule
    checks.check_schedule(order, sched.departures, sched.total_cost, layers, matrix.step_seconds)
    order[1], order[4] = order[4], order[1]
    checks.check_tour(order, 8)  # still a permutation: only the pricing catches it
    with pytest.raises(CheckFailed):
        checks.check_schedule(order, sched.departures, sched.total_cost, layers,
                              matrix.step_seconds)


def test_schedule_check_rejects_a_departure_off_by_one_second(small):
    _, matrix, layers, result = small
    departures = list(result.best_schedule.departures)
    departures[3] += 1
    with pytest.raises(CheckFailed, match="departure 3"):
        checks.check_schedule(result.best_route.order, departures,
                              result.best_schedule.total_cost, layers, matrix.step_seconds)


def test_tour_check_rejects_a_repeated_client():
    checks.check_tour([2, 1, 3], 4)
    with pytest.raises(CheckFailed):
        checks.check_tour([2, 2, 3], 4)


def test_trace_check_rejects_a_rising_trace_and_a_wrong_end():
    checks.check_trace([50, 40, 45, 38, 38, 36], 3, 36)
    with pytest.raises(CheckFailed, match="raised"):
        checks.check_trace([50, 40, 45, 38, 39, 36], 3, 36)
    with pytest.raises(CheckFailed, match="ends at"):
        checks.check_trace([50, 40, 45, 38, 37], 3, 36)


def test_compare_row_check_rejects_a_wrong_c_2d(small):
    instance, matrix, layers, result = small
    averaged = model.average_matrix(matrix)
    baseline = grasp.solve(instance, averaged, result.params)
    c_ml = result.best_schedule.total_cost
    c_2d = model.evaluate_route(baseline.best_route, matrix).total_cost
    own = baseline.best_schedule.total_cost
    args = (c_ml, baseline.best_route.order, own, layers, matrix.step_seconds)
    checks.check_compare_row((c_ml, c_2d, f"{own:.1f}"), *args)
    with pytest.raises(CheckFailed, match="c_2d"):
        checks.check_compare_row((c_ml, c_2d + 1, f"{own:.1f}"), *args)


def test_matrix_check_rejects_one_altered_element(small):
    _, _, layers, _ = small
    altered = [[row[:] for row in layer] for layer in layers]
    checks.check_matrix_equal(altered, layers)
    altered[2][3][4] += 1
    with pytest.raises(CheckFailed, match=r"layer 2 element \(3, 4\)"):
        checks.check_matrix_equal(altered, layers)


def _fetched_cache(tmp_path, instance, matrix):
    plan = fetch.plan_fetch(instance.n_nodes, matrix.n_layers,
                            step_seconds=matrix.step_seconds, start_epoch=EPOCH)
    backend = fetch.RecordedBackend.from_matrix(instance, matrix, EPOCH)
    path = tmp_path / "cache.jsonl"
    fetch.execute_fetch(plan, backend, instance, cache_path=str(path))
    return path


def test_cache_check_rejects_one_dropped_line_and_a_torn_line(tmp_path, small):
    instance, matrix, layers, _ = small
    path = _fetched_cache(tmp_path, instance, matrix)
    checks.check_cache_file(path, layers, matrix.step_seconds, EPOCH)
    lines = path.read_text().splitlines(keepends=True)

    path.write_text("".join(lines[:10] + lines[11:]))
    with pytest.raises(CheckFailed, match="elements, expected"):
        checks.check_cache_file(path, layers, matrix.step_seconds, EPOCH)

    path.write_text("".join(lines[:-1]) + lines[-1][:12])
    with pytest.raises(CheckFailed, match="not a whole record"):
        checks.check_cache_file(path, layers, matrix.step_seconds, EPOCH)


def test_cache_check_accepts_repeats_only_when_told(tmp_path, small):
    instance, matrix, layers, _ = small
    path = _fetched_cache(tmp_path, instance, matrix)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(path.read_text().splitlines(keepends=True)[0])
    checks.check_cache_file(path, layers, matrix.step_seconds, EPOCH, repeats_ok=True)
    with pytest.raises(CheckFailed, match="repeats"):
        checks.check_cache_file(path, layers, matrix.step_seconds, EPOCH)


def test_arc_encoding_check_rejects_a_flipped_arc(small):
    _, _, _, result = small
    arcs = oracle.route_to_arcs(result.best_route)
    checks.check_arc_encoding(result.best_route.order, arcs.x, arcs.u)
    x = arcs.x.copy()
    first = result.best_route.order[0]
    x[0, first] = 0
    with pytest.raises(CheckFailed, match="x\\[0\\]"):
        checks.check_arc_encoding(result.best_route.order, x, arcs.u)


def test_optimum_check_rejects_a_beaten_optimum(small):
    _, matrix, layers, result = small
    cost = result.best_schedule.total_cost
    checks.check_optimum(result.best_route.order, cost, [cost, cost + 5], layers,
                         matrix.step_seconds)
    with pytest.raises(CheckFailed, match="beats"):
        checks.check_optimum(result.best_route.order, cost, [cost - 1], layers,
                             matrix.step_seconds)


def test_fetch_count_check_rejects_a_wrong_day_count():
    checks.check_fetch_counts(122_412, 122_400, 12, 101, 100_000, 2, 2)
    with pytest.raises(CheckFailed, match="days"):
        checks.check_fetch_counts(122_412, 122_400, 12, 101, 100_000, 2, 3)
    with pytest.raises(CheckFailed, match="plan bills"):
        checks.check_fetch_counts(122_411, 122_400, 12, 101, 100_000, 2, 2)


# --- tracer -----------------------------------------------------------------


def test_tracer_nests_spans_and_restores_every_binding(small):
    instance, matrix, _, result = small
    before = (grasp.solve, grasp.enumerate_insertions, fetch.RecordedBackend.query)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("round") as root:
            traced = grasp.solve(instance, matrix, result.params)
    assert (grasp.solve, grasp.enumerate_insertions, fetch.RecordedBackend.query) == before
    assert traced.best_route == result.best_route
    index = tracing.SpanIndex(tracer.spans)
    (solve,) = index.descendants(root, "grasp.solve")
    inserts = index.descendants(solve, "grasp.enumerate_insertions")
    assert len(inserts) == result.params.n_grasp * 7
    for span in inserts:
        assert [a.name for a in index.ancestors(span)][:3] == [
            "grasp.construct_route", "grasp.run_grasp", "grasp.solve"]
        assert 0 <= index.self_seconds(span) <= span.seconds
    assert sum(s.attrs["candidates"] for s in inserts) == result.params.n_grasp * sum(
        (7 - k) * (k + 1) for k in range(7))


def test_gauge_interleaves_units_and_leaves_them_out_of_the_clock():
    assert gauge.measure(0.0) > 0
    before_handler = signal.getsignal(signal.SIGPROF)
    start = gauge.clock()
    assert gauge.clock() - start == pytest.approx(0.0, abs=1e-3)  # no unit yet: unscaled
    with gauge.interleaved():
        start, p0 = gauge.clock(), process_time()
        while process_time() - p0 < 1.5:
            sum(range(1000))
        end, p1 = gauge.clock(), process_time()
    units = end.units - start.units
    assert units >= gauge.RECENT
    work = p1 - p0 - (end.spent - start.spent)
    assert end.work - start.work == pytest.approx(work, abs=1e-6)
    speed = gauge.factor(start, end)
    assert speed == pytest.approx((end.spent - start.spent) / units / gauge.REFERENCE_UNIT_S)
    assert end - start == pytest.approx(work / speed)
    assert gauge.factor(end, end) == end.recent / gauge.REFERENCE_UNIT_S > 0
    assert signal.getsignal(signal.SIGPROF) == before_handler
