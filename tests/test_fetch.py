import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import requests

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
from tdvrp.instances import random_instance
from tdvrp.model import average_matrix, matrix_to_json, save_instance
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import grid_instance, make_matrix, random_layers

START = 1_700_000_000


# --- planning -------------------------------------------------------------------


def test_tiny_plan_is_one_request():
    plan = plan_fetch(2, 1, start_epoch=START)
    assert len(plan.requests) == 1
    assert plan.total_elements == 2  # self-pairs skipped
    req = plan.requests[0]
    assert req.origin_indices == range(0, 2) and req.destination_indices == range(0, 2)


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


@pytest.mark.parametrize(
    "row, entry",
    [
        # each was once cast to int64: 1.7 replayed 1 s, "5" 5 s, epoch 100.9 epoch 100
        ((0, 1, START, 1.7), "rows[0][3] must be an integer in [-2**63, 2**63), got 1.7"),
        ((0, 1, START, "5"), "rows[0][3] must be an integer in [-2**63, 2**63), got '5'"),
        ((0, 1, 100.9, 60), "rows[0][2] must be an integer in [-2**63, 2**63), got 100.9"),
        ((0, True, START, 60), "rows[0][1] must be an integer in [-2**63, 2**63), got True"),
        (np.array([0.0, 1.0, START, 60.0]),
         f"rows[0] must be an integer in [-2**63, 2**63), got {np.float64(0)!r}"),
    ],
    ids=["float-seconds", "string-seconds", "float-epoch", "bool-node", "float-array"],
)
def test_recorded_rows_that_are_not_integers_are_refused(row, entry):
    with pytest.raises(InputError) as info:
        RecordedBackend(grid_instance(2), row if isinstance(row, np.ndarray) else [row])
    assert str(info.value) == entry


@pytest.mark.parametrize(
    "rows",
    [
        # 12 values were once read as three (o, d, t, s) rows: 0->1 = 5, 1->0 = 7, 2->0 = 9
        np.array([[0, 1, 100, 5, 1, 0], [100, 7, 2, 0, 100, 9]]),
        np.array([0, 1, START, 60]),
        np.array([[[0, 1, START, 60]]]),
        [(0, 1, START)],
    ],
    ids=["six-columns", "one-dimension", "three-dimensions", "three-columns"],
)
def test_recorded_rows_of_another_shape_are_refused(rows):
    with pytest.raises(InputError) as info:
        RecordedBackend(random_instance(2, seed=1), rows)
    shape = np.shape(rows)
    assert str(info.value) == (
        "rows must be (origin, destination, epoch, seconds) rows, "
        f"an (m, 4) array, got shape {shape}"
    )


def test_recorded_rows_build_an_empty_store_and_integer_arrays_need_no_scan(
    tmp_path, monkeypatch
):
    inst = grid_instance(3)
    values, answered = RecordedBackend(inst, ()).query(range(3), range(3), START)
    assert not values.any() and np.array_equal(answered, np.eye(3, dtype=bool))
    backend, matrix = _constant_backend(inst, 1, 3600)
    plan = plan_fetch(3, 1, step_seconds=3600, start_epoch=START)
    cache = tmp_path / "cache.jsonl"
    execute_fetch(plan, backend, inst, cache_path=cache)

    def per_value(*args):
        raise AssertionError("an int64 array was checked value by value")

    monkeypatch.setattr("tdvrp.model._integer", per_value)
    replayed = RecordedBackend(inst, read_cache_file(cache))
    RecordedBackend.from_matrix(inst, matrix, START)
    monkeypatch.undo()
    assert execute_fetch(plan, replayed, inst).times.tolist() == matrix.times.tolist()
    with pytest.raises(InputError) as info:
        RecordedBackend.from_matrix(inst, average_matrix(matrix), START)
    assert str(info.value) == (
        f"times[0][0][0] must be an integer in [-2**63, 2**63), got {np.float64(0)!r}"
    )


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


def test_holes_become_known_so_a_multi_day_fetch_finishes(tmp_path, capsys, monkeypatch):
    # Paris31 over 4 layers, 1,500 elements a day: the plan needs 3 days, and
    # the recording lacks every element with (7o + d + s) mod 13 == 0
    paris, inst_path = tdvrp.bundled_paris(), tmp_path / "paris.json"
    save_instance(paris, inst_path)
    source = generate_synthetic(paris, 4, 7200, TrafficProfile(seed=3))
    n = source.n_nodes
    fixture = tmp_path / "recorded.jsonl"
    fixture.write_text("".join(
        json.dumps({"o": o, "d": d, "t": START + 7200 * s, "s": int(source.times[s, o, d])})
        + "\n"
        for s in range(4) for o in range(n) for d in range(n)
        if o != d and (7 * o + d + s) % 13
    ))
    cache, out = tmp_path / "cache.jsonl", tmp_path / "matrix.json"
    argv = [
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--recorded", str(fixture), "--layers", "4", "--step-seconds", "7200",
        "--start-epoch", str(START), "--daily-quota", "1500",
        "--cache", str(cache), "--out", str(out),
    ]
    queries = []
    query = RecordedBackend.query
    monkeypatch.setattr(
        RecordedBackend, "query", lambda self, *args: queries.append(args) or query(self, *args)
    )
    days = [main(argv) for _ in range(3)]
    err = capsys.readouterr().err
    assert days == [3, 3, 3]
    assert err.count("quota exhausted") == 2
    assert "missing entries: layer 0: 0->13" in err
    assert not out.exists()

    sent = len(queries)
    assert main(argv) == 3
    assert len(queries) == sent  # every element is known: the rerun asks for none
    assert "missing entries" in capsys.readouterr().err
    rows = read_cache_file(cache)
    elements = {tuple(row) for row in rows[:, :3].tolist()}
    assert len(rows) == len(elements) == 4 * n * (n - 1)
    holes = rows[rows[:, 3] == -1]
    assert len(holes) == sum(
        (7 * o + d + s) % 13 == 0 for s in range(4) for o in range(n) for d in range(n) if o != d
    )


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


class StatusSession:
    """Answers every request with an HTTP status, or raises `error`."""

    def __init__(self, status=200, error=None):
        self.status, self.error = status, error

    def get(self, url, params=None, timeout=None):
        if self.error is not None:
            raise self.error
        return FakeResponse("<html>down</html>", status_code=self.status)


@pytest.mark.parametrize(
    "session, kind, message",
    [
        (StatusSession(503), TransientBackendError, "server error HTTP 503"),
        (StatusSession(404), PermanentBackendError, "HTTP 404: <html>down</html>"),
        (StatusSession(error=requests.ConnectionError("refused")), TransientBackendError,
         "request failed: refused"),
    ],
    ids=["5xx-transient", "4xx-permanent", "request-exception-transient"],
)
def test_live_backend_sorts_http_failures(session, kind, message):
    backend = LiveBackend(grid_instance(2), api_key="k", session=session)
    with pytest.raises(kind) as info:
        backend.query((0,), (1,), START)
    assert type(info.value) is kind and str(info.value) == message


def test_an_ok_element_without_a_duration_is_a_hole():
    payload = _ok_rows([{"status": "OK"}, _seconds(42)])
    backend = LiveBackend(grid_instance(3), api_key="k", session=FakeSession(payload))
    values, answered = backend.query((0,), (1, 2), START)
    assert answered.tolist() == [[False, True]] and values.tolist() == [[0, 42]]


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
        (_ok_rows([_seconds(2**63)]), r"whose value must be an integer in \[0, 2\*\*63\)"),
        (_ok_rows([{"status": "OK", "duration": 60}]), "duration 60"),
        (_ok_rows(), "does not hold 1 rows"),
        (_ok_rows([_seconds(1)], [_seconds(2)]), "does not hold 1 rows"),
        (_ok_rows([_seconds(1), _seconds(2)]), "row 0 does not hold 1 elements"),
        ({"status": "OK", "rows": ["elements"]}, "row 0 does not hold 1 elements"),
        (_ok_rows(["OK"]), r"element \(0, 0\) is not an object"),
        (_ok_rows([_seconds(-40)]), r'duration \{"value": -40\}, whose value must be .*, got -40'),
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
