import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdvrp
from tdvrp.errors import (
    IncompleteMatrixError,
    InputError,
    PermanentBackendError,
    PlanSuspendedError,
    QuotaExhaustedError,
    TransientBackendError,
)
from tdvrp.fetch import (
    LiveBackend,
    QuotaBudget,
    RecordedBackend,
    execute_fetch,
    max_nodes_single_day,
    plan_fetch,
    read_cache_file,
)
from tdvrp.cli import main
from tdvrp.model import matrix_to_json, save_instance
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import grid_instance, make_matrix, random_layers

START = 1_700_000_000


# --- planning -------------------------------------------------------------------


def test_tiny_plan_is_one_request():
    plan = plan_fetch(2, 1, start_epoch=START)
    assert len(plan.requests) == 1
    assert plan.total_elements == 2  # self-pairs skipped
    req = plan.requests[0]
    assert req.origin_indices == (0, 1) and req.destination_indices == (0, 1)


def test_requests_respect_element_limit():
    plan = plan_fetch(31, 6, start_epoch=START, elements_per_request_limit=100)
    assert all(r.billed_elements <= 100 for r in plan.requests)


def test_coverage_is_exact_partition():
    plan = plan_fetch(31, 6, start_epoch=START)
    seen = np.zeros((6, 31, 31), dtype=int)
    for req in plan.requests:
        assert req.departure_time == START + req.layer * plan.step_seconds
        for o in req.origin_indices:
            for d in req.destination_indices:
                seen[req.layer, o, d] += 1
    assert (seen == 1).all()


def test_wide_rows_split_along_destinations():
    plan = plan_fetch(150, 1, start_epoch=START, elements_per_request_limit=100)
    assert all(r.billed_elements <= 100 for r in plan.requests)
    seen = np.zeros((1, 150, 150), dtype=int)
    for req in plan.requests:
        for o in req.origin_indices:
            for d in req.destination_indices:
                seen[req.layer, o, d] += 1
    assert (seen == 1).all()


def test_element_counts_and_days_for_the_31_node_case():
    plan = plan_fetch(31, 6, start_epoch=START, daily_quota=2500)
    assert plan.total_elements == 6 * 31 * 30 == 5580
    assert plan.quota_elements == 6 * 31 * 31
    assert plan.days_needed == 3  # ceil arithmetic under the free quota


def test_single_day_bounds_match_quota_arithmetic():
    assert max_nodes_single_day(24, 100_000) == 64
    assert max_nodes_single_day(24, 2_500) == 10
    assert plan_fetch(64, 24, start_epoch=START, daily_quota=100_000).days_needed == 1
    assert plan_fetch(65, 24, start_epoch=START, daily_quota=100_000).days_needed == 2
    assert plan_fetch(10, 24, start_epoch=START, daily_quota=2_500).days_needed == 1
    assert plan_fetch(11, 24, start_epoch=START, daily_quota=2_500).days_needed == 2


def test_self_pair_accounting_flag():
    plan = plan_fetch(5, 2, start_epoch=START)
    assert plan.total_elements == 2 * 20  # useful: self-pairs skipped
    assert plan.quota_elements == 50  # billed: the whole cross product


def test_plan_rejects_degenerate_sizes():
    with pytest.raises(InputError):
        plan_fetch(1, 3, start_epoch=START)
    with pytest.raises(InputError):
        plan_fetch(4, 0, start_epoch=START)


@pytest.mark.parametrize(
    "arg, value",
    [
        # 1.5 once planned departures at START + 1.5, which the cache then refused
        ("step_seconds", 1.5),
        ("start_epoch", START + 0.5),
        ("elements_per_request_limit", True),
        ("daily_quota", "100"),
    ],
)
def test_plan_refuses_integer_arguments_that_are_not_integers(arg, value):
    with pytest.raises(InputError) as info:
        plan_fetch(4, 2, **{"start_epoch": START, arg: value})
    assert str(info.value) == f"{arg} must be an integer, got {value!r}"


# --- execution -------------------------------------------------------------------


def _constant_backend(instance, n_layers, step, value=600):
    arr = np.full((n_layers, instance.n_nodes, instance.n_nodes), value, dtype=np.int64)
    for s in range(n_layers):
        np.fill_diagonal(arr[s], 0)
    matrix = make_matrix(arr, step)
    return RecordedBackend.from_matrix(instance, matrix, START), matrix


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def query(self, origins, destinations, departure_time):
        self.calls += 1
        return self.inner.query(origins, destinations, departure_time)


def test_replayed_constant_backend_assembles_constant_matrix(tmp_path):
    inst = grid_instance(4)
    backend, _ = _constant_backend(inst, 2, 3600)
    plan = plan_fetch(4, 2, step_seconds=3600, start_epoch=START)
    matrix = execute_fetch(plan, backend, inst)
    assert (matrix.times[:, ~np.eye(4, dtype=bool)] == 600).all()
    assert (np.diagonal(matrix.times, axis1=1, axis2=2) == 0).all()


def test_asymmetric_values_are_preserved(rng):
    inst = grid_instance(3)
    layers = random_layers(rng, 3, 2)
    layers[0, 1, 2] = 111
    layers[0, 2, 1] = 222
    source = make_matrix(layers, 3600)
    backend = RecordedBackend.from_matrix(inst, source, START)
    plan = plan_fetch(3, 2, step_seconds=3600, start_epoch=START)
    matrix = execute_fetch(plan, backend, inst)
    assert matrix.times[0, 1, 2] == 111
    assert matrix.times[0, 2, 1] == 222
    assert np.array_equal(matrix.times, source.times)


def test_warm_cache_issues_zero_requests(tmp_path):
    inst = grid_instance(4)
    backend, _ = _constant_backend(inst, 2, 3600)
    counting = CountingBackend(backend)
    plan = plan_fetch(4, 2, step_seconds=3600, start_epoch=START)
    cache = tmp_path / "cache.jsonl"

    first = execute_fetch(plan, counting, inst, cache_path=cache)
    calls_after_first = counting.calls
    assert calls_after_first > 0

    second = execute_fetch(plan, counting, inst, cache_path=cache)
    assert counting.calls == calls_after_first
    assert matrix_to_json(first) == matrix_to_json(second)


def test_resume_over_a_cache_torn_mid_record(tmp_path):
    # a kill mid-write leaves the last record without its newline
    inst = grid_instance(5)
    layers = random_layers(np.random.default_rng(3), 5, 2)
    source = make_matrix(layers, 3600)
    counting = CountingBackend(RecordedBackend.from_matrix(inst, source, START))
    plan = plan_fetch(5, 2, step_seconds=3600, start_epoch=START)
    cache = tmp_path / "cache.jsonl"
    execute_fetch(plan, counting, inst, cache_path=cache)
    data = cache.read_bytes()
    line_start = data.rfind(b"\n", 0, len(data) // 2) + 1
    line_end = data.index(b"\n", line_start)
    cache.write_bytes(data[: (line_start + line_end) // 2])
    assert len(read_cache_file(cache)) == data[:line_start].count(b"\n")

    resumed = execute_fetch(plan, counting, inst, cache_path=cache)
    assert np.array_equal(resumed.times, source.times)
    text = cache.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert all(json.loads(line) for line in text.splitlines())

    calls = counting.calls
    warm = execute_fetch(plan, counting, inst, cache_path=cache)
    assert counting.calls == calls
    assert np.array_equal(warm.times, source.times)


def test_cache_reruns_give_byte_identical_files(tmp_path):
    # the `fetch --backend synthetic` path: a generated matrix replayed
    inst = grid_instance(5)
    profile = TrafficProfile(base_speed_kmh=20.0, jitter_range=(0.9, 1.2), seed=4)
    source = generate_synthetic(inst, 3, 3600, profile)
    backend = RecordedBackend.from_matrix(inst, source, START)
    plan = plan_fetch(5, 3, step_seconds=3600, start_epoch=START)
    cache = tmp_path / "cache.jsonl"
    a = execute_fetch(plan, backend, inst, cache_path=cache)
    first = cache.read_bytes()
    b = execute_fetch(plan, backend, inst, cache_path=cache)
    assert cache.read_bytes() == first
    assert matrix_to_json(a) == matrix_to_json(b)
    assert np.array_equal(a.times, source.times)


def test_missing_pair_reports_holes():
    inst = grid_instance(3)
    rows = []
    matrix = make_matrix(random_layers(np.random.default_rng(0), 3, 1), 3600)
    for o in range(3):
        for d in range(3):
            if o != d and not (o == 1 and d == 2):
                rows.append((o, d, START, int(matrix.times[0, o, d])))
    backend = RecordedBackend(inst, rows)
    plan = plan_fetch(3, 1, step_seconds=3600, start_epoch=START)
    with pytest.raises(IncompleteMatrixError) as err:
        execute_fetch(plan, backend, inst)
    assert (0, 1, 2) in err.value.holes


def test_transient_failures_are_retried():
    inst = grid_instance(3)
    backend, _ = _constant_backend(inst, 1, 3600)

    class Flaky:
        def __init__(self, inner, failures):
            self.inner = inner
            self.failures = failures

        def query(self, origins, destinations, departure_time):
            if self.failures > 0:
                self.failures -= 1
                raise TransientBackendError("blip")
            return self.inner.query(origins, destinations, departure_time)

    plan = plan_fetch(3, 1, step_seconds=3600, start_epoch=START)
    sleeps = []
    matrix = execute_fetch(plan, Flaky(backend, 2), inst, sleep=sleeps.append)
    assert matrix.n_nodes == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff from 0.5 s

    sleeps.clear()
    with pytest.raises(PermanentBackendError, match="after 5 attempts: blip"):
        execute_fetch(plan, Flaky(backend, 99), inst, sleep=sleeps.append)
    assert sleeps == [0.5, 1.0, 2.0, 4.0]


def test_permanent_failure_names_the_request():
    inst = grid_instance(3)

    class Refusing:
        def query(self, origins, destinations, departure_time):
            raise PermanentBackendError("denied")

    plan = plan_fetch(3, 2, step_seconds=3600, start_epoch=START)
    sleeps = []
    with pytest.raises(PermanentBackendError, match="layer=0"):
        execute_fetch(plan, Refusing(), inst, sleep=sleeps.append)
    assert sleeps == []  # a permanent failure is not retried


def test_misshapen_answer_is_a_permanent_failure():
    inst = grid_instance(3)
    backend, _ = _constant_backend(inst, 1, 3600)

    class Transposing:
        def query(self, origins, destinations, departure_time):
            values, answered = backend.query(origins, destinations, departure_time)
            return values.T, answered.T

    # 2 x 3 tiles, answered as 3 x 2
    plan = plan_fetch(3, 1, step_seconds=3600, start_epoch=START, elements_per_request_limit=6)
    with pytest.raises(PermanentBackendError, match="layer=0 .* returned a malformed grid"):
        execute_fetch(plan, Transposing(), inst)


def test_quota_budget_suspends_with_resumable_progress(tmp_path):
    inst = grid_instance(6)
    backend, _ = _constant_backend(inst, 2, 3600)
    plan = plan_fetch(
        6, 2, step_seconds=3600, start_epoch=START, elements_per_request_limit=12
    )
    cache = tmp_path / "cache.jsonl"

    with pytest.raises(PlanSuspendedError) as err:
        execute_fetch(plan, backend, inst, cache_path=cache, budget=QuotaBudget(30))
    assert 0 < err.value.completed_requests < len(plan.requests)

    # a fresh day finishes the job from the cache
    matrix = execute_fetch(plan, backend, inst, cache_path=cache, budget=QuotaBudget(200))
    assert (matrix.times[:, ~np.eye(6, dtype=bool)] == 600).all()


def test_provider_quota_signal_suspends_at_the_refused_request(tmp_path):
    inst = grid_instance(4)
    backend, _ = _constant_backend(inst, 2, 3600)
    plan = plan_fetch(4, 2, step_seconds=3600, start_epoch=START, elements_per_request_limit=8)

    class Rationed:
        def __init__(self, answers):
            self.answers = answers

        def query(self, origins, destinations, departure_time):
            if self.answers == 0:
                raise QuotaExhaustedError("provider signalled OVER_QUERY_LIMIT")
            self.answers -= 1
            return backend.query(origins, destinations, departure_time)

    cache = tmp_path / "cache.jsonl"
    with pytest.raises(PlanSuspendedError) as err:
        execute_fetch(plan, Rationed(1), inst, cache_path=cache)
    assert (err.value.completed_requests, err.value.total_requests) == (1, 4)
    # the rerun skips the cached request and is refused at the third
    with pytest.raises(PlanSuspendedError) as err:
        execute_fetch(plan, Rationed(1), inst, cache_path=cache)
    assert err.value.completed_requests == 2
    execute_fetch(plan, Rationed(2), inst, cache_path=cache)


def test_budget_charge_accounts_elements():
    budget = QuotaBudget(daily_quota=100)
    budget.charge(60)
    budget.charge(40)
    assert budget.elements_used == 100
    with pytest.raises(Exception):
        budget.charge(1)


# --- live backend wire format ------------------------------------------------------


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self.payload = payload
        self.status_code = status_code
        self.text = str(payload)

    def json(self):
        if isinstance(self.payload, str):
            return json.loads(self.payload)  # a body as the provider sent it
        return self.payload


class FakeSession:
    def __init__(self, payload):
        self.payload = payload
        self.last = None

    def get(self, url, params=None, timeout=None):
        self.last = (url, params)
        return FakeResponse(self.payload)


def test_live_backend_request_shape_and_parsing():
    payload = {
        "status": "OK",
        "rows": [
            {
                "elements": [
                    {"status": "OK", "duration_in_traffic": {"value": 321}},
                    {"status": "NOT_FOUND"},
                ]
            }
        ],
    }
    session = FakeSession(payload)
    backend = LiveBackend(grid_instance(3), api_key="test-key", session=session)
    values, answered = backend.query((0,), (1, 2), START)
    assert values.dtype == np.int64 and answered.dtype == bool
    assert values[0, 0] == 321 and answered.tolist() == [[True, False]]
    url, params = session.last
    assert params["mode"] == "driving"
    assert params["traffic_model"] == "best_guess"
    assert params["departure_time"] == str(START)
    assert params["origins"] == "48.800000,2.300000"
    assert params["destinations"] == "48.800000,2.320000|48.820000,2.300000"


def test_live_backend_maps_provider_statuses():
    inst = grid_instance(2)
    backend = LiveBackend(inst, api_key="k", session=FakeSession({"status": "OVER_QUERY_LIMIT"}))
    with pytest.raises(Exception, match="OVER_QUERY_LIMIT"):
        backend.query((0,), (1,), START)
    backend = LiveBackend(inst, api_key="k", session=FakeSession({"status": "REQUEST_DENIED"}))
    with pytest.raises(PermanentBackendError):
        backend.query((0,), (1,), START)


def _ok_rows(*elements_per_row):
    return {"status": "OK", "rows": [{"elements": list(row)} for row in elements_per_row]}


def _seconds(value):
    return {"status": "OK", "duration": {"value": value}}


@pytest.mark.parametrize(
    "payload, expected",
    [
        ("<html>busy</html>", "response is not JSON"),
        ('{"status": "OK", "rows": [', "response is not JSON"),
        (["OK"], "provider status None"),
        (_ok_rows([_seconds("12a")]), r'duration \{"value": "12a"\}'),
        (_ok_rows([_seconds(True)]), r'duration \{"value": true\}'),
        (_ok_rows([_seconds(1.5)]), r'duration \{"value": 1.5\}'),
        (_ok_rows([_seconds(2**63)]), "not a 64-bit JSON integer"),
        (_ok_rows([{"status": "OK", "duration": 60}]), "duration 60"),
        (_ok_rows(), "does not hold 1 rows"),
        (_ok_rows([_seconds(1)], [_seconds(2)]), "does not hold 1 rows"),
        (_ok_rows([_seconds(1), _seconds(2)]), "row 0 does not hold 1 elements"),
        ({"status": "OK", "rows": ["elements"]}, "row 0 does not hold 1 elements"),
        (_ok_rows(["OK"]), r"element \(0, 0\) is not an object"),
        (_ok_rows([_seconds(-40)]), r'duration \{"value": -40\}, whose value is not .* >= 0'),
    ],
)
def test_live_backend_rejects_malformed_responses(payload, expected):
    backend = LiveBackend(grid_instance(2), api_key="k", session=FakeSession(payload))
    with pytest.raises(PermanentBackendError, match=expected):
        backend.query((0,), (1,), START)


@pytest.mark.parametrize(
    "payload, expected",
    [
        ("<html>busy</html>", "response is not JSON"),
        (_ok_rows([_seconds(0), _seconds("12a")], [_seconds(60), _seconds(0)]),
         'element (0, 1) has duration {"value": "12a"}'),
    ],
)
def test_malformed_live_response_exits_as_a_backend_error(
    payload, expected, tmp_path, monkeypatch, capsys
):
    inst_path = tmp_path / "inst.json"
    save_instance(grid_instance(2), inst_path)
    monkeypatch.setenv("GOOGLE_MAPS_API_KEY", "k")
    monkeypatch.setattr("requests.Session", lambda: FakeSession(payload))
    rc = main(["fetch", "--instance", str(inst_path), "--backend", "live", "--layers", "1",
               "--start-epoch", str(START), "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert expected in capsys.readouterr().err


def test_live_backend_requires_a_key(monkeypatch):
    monkeypatch.delenv("GOOGLE_MAPS_API_KEY", raising=False)
    with pytest.raises(InputError):
        LiveBackend(grid_instance(2))


def test_importing_the_cli_does_not_load_requests():
    src = str(Path(tdvrp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, tdvrp.cli; sys.exit(3 if 'requests' in sys.modules else 0)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
