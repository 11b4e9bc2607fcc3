import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tdvrp.cli import main
from tdvrp.errors import InputError, RouteError
from tdvrp.fetch import RecordedBackend, execute_fetch, plan_fetch
from tdvrp.grasp import solve
from tdvrp.model import (
    Instance,
    MultiLayerMatrix,
    Node,
    Route,
    SolverParams,
    average_matrix,
    evaluate_route,
    instance_from_json,
    instance_to_json,
    layer_index,
    matrix_from_json,
    matrix_to_json,
    save_instance,
    travel_time,
    validate_matrix,
)
from tdvrp.oracle import brute_force_optimum, check_milp_feasibility, route_to_arcs

from conftest import (
    constant_matrix,
    grid_instance,
    make_matrix,
    naive_departures,
    random_layers,
    triangle_violations_scan,
    zero_diagonal,
)


# --- layer lookup -------------------------------------------------------------


def test_layer_index_horizon_start():
    m = constant_matrix(3, 100, n_layers=6, step_seconds=7200)
    assert layer_index(0, m) == 0


def test_layer_index_boundary():
    m = constant_matrix(3, 100, n_layers=6, step_seconds=7200)
    assert layer_index(7199, m) == 0
    assert layer_index(7200, m) == 1


def test_layer_index_clamps_to_last_layer():
    m = constant_matrix(3, 100, n_layers=6, step_seconds=7200)
    assert layer_index(999999, m) == 5


def test_layer_index_matches_integer_division(rng):
    m = constant_matrix(3, 100, n_layers=6, step_seconds=7200)
    for k in rng.integers(0, 100000, size=200):
        k = int(k)
        assert layer_index(k, m) == min(k // 7200, 5)


def test_layer_index_rejects_negative():
    m = constant_matrix(3, 100)
    with pytest.raises(InputError):
        layer_index(-1, m)


def test_layer_index_and_travel_time_reject_nan():
    # travel_time once raised a bare ValueError from int(nan)
    m = constant_matrix(3, 100)
    with pytest.raises(InputError, match="departure time must be a finite number >= 0, got nan"):
        layer_index(float("nan"), m)
    with pytest.raises(InputError, match="departure time must be a finite number >= 0, got nan"):
        travel_time(0, 1, float("nan"), m)


@pytest.mark.parametrize(
    "k, message",
    [
        # int(inf // step) raised a bare ValueError
        (float("inf"), "got inf"),
        # a bool was layer 0
        (True, "got True"),
        # a string or None raised a bare TypeError
        ("5", "got '5'"),
        (None, "got None"),
    ],
    ids=["inf", "bool", "string", "none"],
)
def test_layer_index_and_travel_time_take_only_finite_real_departures(k, message):
    m = constant_matrix(3, 100, n_layers=3, step_seconds=60)
    for call in (lambda: layer_index(k, m), lambda: travel_time(0, 1, k, m)):
        with pytest.raises(InputError, match=f"departure time must be a finite number >= 0, {message}"):
            call()


def test_layer_index_takes_a_numpy_float():
    # layer s drives every arc in 100 * (s + 1) s
    times = zero_diagonal(np.full((3, 3, 3), 100) * np.arange(1, 4)[:, None, None])
    m = MultiLayerMatrix(times=times, step_seconds=60)
    assert layer_index(np.float64(61.5), m) == 1
    assert travel_time(0, 1, np.float64(61.5), m) == 200


# --- travel time --------------------------------------------------------------


def test_travel_time_constant_matrix_ignores_departure():
    m = constant_matrix(4, 900, n_layers=3, step_seconds=3600)
    for k in (0, 1800, 3600, 50000):
        assert travel_time(1, 2, k, m) == 900


def test_travel_time_picks_departure_layer():
    layers = [
        [[0, 1800], [3000, 0]],  # 50 min return before 1h
        [[0, 1800], [1200, 0]],  # 20 min return after
    ]
    m = make_matrix(layers, step_seconds=3600)
    assert travel_time(1, 0, 1800, m) == 3000
    assert travel_time(1, 0, 3600, m) == 1200


def test_travel_time_is_not_symmetrized():
    layers = [[[0, 100, 200], [300, 0, 400], [500, 600, 0]]]
    m = make_matrix(layers, step_seconds=3600)
    assert travel_time(0, 1, 0, m) == 100
    assert travel_time(1, 0, 0, m) == 300


def test_travel_time_rejects_self_arc_and_bad_index():
    m = constant_matrix(3, 100)
    with pytest.raises(InputError):
        travel_time(1, 1, 0, m)
    with pytest.raises(InputError):
        travel_time(0, 3, 0, m)


# --- route evaluation -----------------------------------------------------------


def test_evaluate_empty_route():
    m = constant_matrix(4, 600)
    sched = evaluate_route(Route(()), m)
    assert sched.total_cost == 0
    assert sched.departures == (0,)


def test_evaluate_constant_matrix_counts_arcs():
    m = constant_matrix(4, 600)
    sched = evaluate_route(Route((1, 2, 3)), m)
    assert sched.total_cost == 4 * 600


def test_evaluate_crosses_layer_boundary():
    # out at 8:00 costs 30 min; the return arc departs at minute 30, still in
    # the congested first hour, so it costs 50 min rather than 20
    layers = [
        [[0, 1800], [3000, 0]],
        [[0, 1800], [1200, 0]],
    ]
    m = make_matrix(layers, step_seconds=3600)
    sched = evaluate_route(Route((1,)), m)
    deps, total = naive_departures([1], layers, 3600)
    assert sched.departures == tuple(deps) == (0, 1800)
    assert sched.total_cost == total == 4800


def test_evaluate_matches_naive_recursion(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        s = int(rng.integers(1, 6))
        layers = random_layers(rng, n, s)
        step = int(rng.integers(300, 4000))
        m = make_matrix(layers, step)
        size = int(rng.integers(0, n))
        order = list(rng.permutation(range(1, n))[:size])
        deps, total = naive_departures(order, layers.tolist(), step)
        sched = evaluate_route(Route(tuple(order)), m)
        assert list(sched.departures) == deps
        assert sched.total_cost == total


def test_departures_non_decreasing(rng):
    for _ in range(20):
        n = int(rng.integers(3, 9))
        layers = random_layers(rng, n, 4, low=0, high=2000)
        m = make_matrix(layers, 1800)
        order = tuple(rng.permutation(range(1, n)))
        deps = evaluate_route(Route(order), m).departures
        assert all(a <= b for a, b in zip(deps, deps[1:]))


def test_evaluate_rejects_duplicates_and_depot():
    m = constant_matrix(4, 100)
    with pytest.raises(RouteError):
        evaluate_route([1, 2, 1], m)
    with pytest.raises(RouteError):
        Route((0, 1))
    with pytest.raises(RouteError):
        evaluate_route([1, 9], m)  # out of range for 4 nodes


# --- averaging ------------------------------------------------------------------


def test_average_single_layer_is_identity():
    layers = [[[0, 120, 300], [180, 0, 240], [360, 60, 0]]]
    m = make_matrix(layers, step_seconds=7200)
    avg = average_matrix(m)
    assert avg.n_layers == 1
    assert np.array_equal(avg.times, m.times)
    assert avg.step_seconds == m.horizon_seconds == 7200


def test_average_of_two_layers():
    layers = [
        [[0, 100], [100, 0]],
        [[0, 300], [300, 0]],
    ]
    m = make_matrix(layers, step_seconds=3600)
    avg = average_matrix(m)
    assert avg.times[0][0][1] == 200
    assert avg.step_seconds == 7200


def test_average_matches_elementwise_mean(rng):
    layers = random_layers(rng, 5, 4)
    m = make_matrix(layers, 1800)
    avg = average_matrix(m)
    plain = layers.tolist()
    for i in range(5):
        for j in range(5):
            expected = sum(plain[s][i][j] for s in range(4)) / 4
            assert avg.times[0][i][j] == expected


def test_average_is_idempotent(rng):
    m = make_matrix(random_layers(rng, 4, 3), 1200)
    once = average_matrix(m)
    twice = average_matrix(once)
    assert np.array_equal(once.times, twice.times)
    assert once.step_seconds == twice.step_seconds


def test_identical_layers_collapse_to_average(rng):
    layer = random_layers(rng, 6, 1)[0]
    m = make_matrix([layer] * 4, 1800)
    avg = average_matrix(m)
    for _ in range(25):
        order = tuple(rng.permutation(range(1, 6))[: int(rng.integers(0, 6))])
        assert (
            evaluate_route(Route(order), m).total_cost
            == evaluate_route(Route(order), avg).total_cost
        )


# --- validation -----------------------------------------------------------------


def test_validate_clean_matrix():
    m = constant_matrix(5, 600, n_layers=2)
    report = validate_matrix(m)
    assert report.ok
    assert all(l.triangle_violations == 0 for l in report.layers)


def test_validate_finds_single_triangle_violation():
    layer = [[0, 2, 10], [4, 0, 3], [4, 4, 0]]
    m = make_matrix([layer], 3600)
    report = validate_matrix(m)
    assert not report.ok
    assert report.layers[0].triangle_violations == 1
    assert report.layers[0].worst_violation == 5  # 10 > 2 + 3
    assert triangle_violations_scan(layer) == (1, 5)


def test_validate_matches_exhaustive_scan(rng):
    for _ in range(10):
        n = int(rng.integers(3, 7))
        layers = random_layers(rng, n, 2, low=1, high=50)
        m = make_matrix(layers, 3600)
        report = validate_matrix(m)
        for s in range(2):
            count, worst = triangle_violations_scan(layers[s].tolist())
            assert report.layers[s].triangle_violations == count
            assert report.layers[s].worst_violation == worst


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 9),
    dtype=st.sampled_from([np.int64, np.float64]),
)
def test_validate_matches_exhaustive_scan_on_any_layer(data, n, dtype):
    cells = st.integers(0, 50) if dtype is np.int64 else st.floats(0, 100)
    arr = zero_diagonal(data.draw(arrays(dtype, (2, n, n), elements=cells)))
    report = validate_matrix(MultiLayerMatrix(times=arr, step_seconds=3600))
    for s, layer in enumerate(report.layers):
        got = (layer.triangle_violations, layer.worst_violation)
        assert got == triangle_violations_scan(arr[s].tolist())


@pytest.mark.parametrize("block_rows", [1, 2, 5])
def test_validate_in_row_blocks_matches_exhaustive_scan(rng, block_rows):
    # Off-diagonal times in [10, 15] meet every triangle inequality; raising
    # cells of a block of origin rows above 30 makes violations whose origin
    # lies only in that block, so the exact count runs on those rows alone.
    for _ in range(5):
        n = int(rng.integers(6, 10))
        layers = zero_diagonal(rng.integers(10, 16, size=(2, n, n)))
        i0 = int(rng.integers(0, n - block_rows + 1))
        for s in range(2):
            for i in range(i0, i0 + block_rows):
                k = int(rng.choice([c for c in range(n) if c != i]))
                layers[s, i, k] = rng.integers(31, 60)
        for arr in (layers, zero_diagonal(layers + 0.5)):
            report = validate_matrix(MultiLayerMatrix(times=arr, step_seconds=3600))
            for s, layer in enumerate(report.layers):
                assert layer.triangle_violations > 0
                got = (layer.triangle_violations, layer.worst_violation)
                assert got == triangle_violations_scan(arr[s].tolist())


def test_validate_holds_no_cube_of_a_layer():
    n = 150
    times = zero_diagonal(np.random.default_rng(3).integers(0, 1000, size=(1, n, n)))
    matrix = MultiLayerMatrix(times=times, step_seconds=60)
    tracemalloc.start()
    try:
        report = validate_matrix(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.layers[0].triangle_violations > 0  # every row is counted too
    # an (n, n, n) int64 temporary would be n**3 * 8 B, about 27 MB
    assert peak < n**3 * 8 / 10


@pytest.mark.parametrize("nested", [False, True], ids=["ndarray", "nested-list"])
@pytest.mark.parametrize("dtype, shown", [(np.int64, "3"), (np.float64, "3.0")])
def test_matrix_refuses_a_nonzero_diagonal(nested, dtype, shown):
    times = zero_diagonal(np.full((2, 3, 3), 600, dtype=dtype))
    times[0, 1, 1] = 3
    with pytest.raises(InputError) as info:
        MultiLayerMatrix(times=times.tolist() if nested else times, step_seconds=60)
    assert str(info.value) == f"a node's travel time to itself must be 0; times[0][1][1] = {shown}"
    # a negative or NaN entry is named before any nonzero diagonal entry
    times[1, 2, 0] = -1 if dtype is np.int64 else np.nan
    with pytest.raises(InputError, match=r"must be >= 0; times\[1\]\[2\]\[0\] = "):
        MultiLayerMatrix(times=times.tolist() if nested else times, step_seconds=60)


def test_matrix_file_with_a_nonzero_diagonal_is_refused(tmp_path, capsys):
    text = _matrix_document([[[0, 5], [5, 0]], [[0, 5], [5, 7]]])
    message = "a node's travel time to itself must be 0; times[1][1][1] = 7"
    with pytest.raises(InputError) as info:
        matrix_from_json(text)
    assert str(info.value) == message
    matrix, instance = tmp_path / "matrix.json", tmp_path / "instance.json"
    matrix.write_text(text)
    save_instance(grid_instance(2), instance)
    for command in (["solve"], ["compare", "--seeds", "1"]):
        argv = [*command, "--instance", str(instance), "--matrix", str(matrix)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


# --- types and file formats --------------------------------------------------


def test_instance_validation():
    with pytest.raises(InputError):
        Instance(nodes=(Node(0, 0, 0),))  # too small
    with pytest.raises(InputError):
        Instance(nodes=(Node(0, 0, 0), Node(2, 0, 0)))  # gap in ids
    with pytest.raises(InputError):
        Instance(nodes=(Node(0, 91.0, 0), Node(1, 0, 0)))  # latitude range


def test_matrix_structural_validation():
    with pytest.raises(InputError):
        MultiLayerMatrix(times=np.zeros((2, 3)), step_seconds=60)
    with pytest.raises(InputError):
        MultiLayerMatrix(times=np.zeros((1, 3, 4)), step_seconds=60)
    with pytest.raises(InputError) as info:
        MultiLayerMatrix(times=np.zeros((0, 2, 2), dtype=np.int64), step_seconds=60)
    assert str(info.value) == "need at least 1 layer and 2 nodes, got shape (0, 2, 2)"


@pytest.mark.parametrize(
    "dtype, bad", [(np.int64, -500), (np.int64, -1), (float, -500), (float, -1), (float, np.nan)]
)
def test_travel_times_below_zero_are_refused(dtype, bad, rng):
    times = random_layers(rng, 6, 2).astype(dtype)
    times[1, 3, 4] = bad
    with pytest.raises(InputError, match=r"must be >= 0; times\[1\]\[3\]\[4\] = "):
        MultiLayerMatrix(times=times, step_seconds=1800)


def test_infinite_travel_time_is_refused():
    # evaluate_route once raised a bare ValueError on this matrix and
    # matrix_to_json wrote the most negative int64 in its place
    times = [[[0, np.inf, 5], [1, 0, 5], [5, 5, 0]]]
    with pytest.raises(InputError) as info:
        MultiLayerMatrix(times=times, step_seconds=60)
    assert str(info.value) == "travel times must be finite; times[0][0][1] = inf"


def test_time_that_priced_a_tour_below_zero_is_refused():
    # evaluate_route and brute_force_optimum once accepted this matrix: the
    # tour (1, 2, 3, 4, 5) left client 1 at -5000 s, priced on a wrapped
    # layer, and came back at -2000 s
    times = np.full((3, 6, 6), 600)
    times[:, range(6), range(6)] = 0
    times[0, 0, 1] = -5000
    with pytest.raises(InputError, match=r"times\[0\]\[0\]\[1\] = -5000$"):
        MultiLayerMatrix(times=times, step_seconds=1800)


@pytest.mark.parametrize(
    "times, message",
    [
        # numpy would cast each of these to int64
        (np.array([[["0", "5"], ["7", "0"]]]), "integer or float seconds, got dtype <U1"),
        (np.array([[[False, True], [True, False]]]), "integer or float seconds, got dtype bool"),
        (np.array([[[0, 5], [7, 0]]], dtype=object), "integer or float seconds, got dtype object"),
        # 2**63 wraps to the most negative int64
        (np.array([[[0, 2**63], [7, 0]]], dtype=np.uint64), "times[0][0][1] = -9223372036854775808"),
        # np.asarray casts a bool that sits among numbers, so True would price as 1 s
        ([[[0, True], [1, 0]]], "times[0][0][1] must be integer or float seconds, got True"),
        ([[[0.0, 1.5], [np.True_, 0.0]]],
         "times[0][1][0] must be integer or float seconds, got np.True_"),
    ],
    ids=["str", "bool", "object", "uint64", "bool-among-ints", "bool-among-floats"],
)
def test_matrix_refuses_entries_numpy_would_coerce(times, message):
    with pytest.raises(InputError) as info:
        MultiLayerMatrix(times=times, step_seconds=60)
    assert str(info.value).endswith(message)


@pytest.mark.parametrize(
    "step, message",
    [
        (1.9, "step_seconds must be an integer in [1, 2**63), got 1.9"),
        ("7200", "step_seconds must be an integer in [1, 2**63), got '7200'"),
        (True, "step_seconds must be an integer in [1, 2**63), got True"),
        (0, "step_seconds must be an integer in [1, 2**63), got 0"),
    ],
)
def test_matrix_refuses_step_that_is_not_a_positive_integer(step, message):
    with pytest.raises(InputError) as info:
        MultiLayerMatrix(times=np.zeros((1, 3, 3), dtype=np.int64), step_seconds=step)
    assert str(info.value) == message


def test_matrix_is_immutable():
    m = constant_matrix(3, 60)
    with pytest.raises(ValueError):
        m.times[0, 0, 1] = 99


def test_matrix_json_round_trip(rng):
    m = make_matrix(random_layers(rng, 4, 3), 1800)
    text = matrix_to_json(m)
    again = matrix_from_json(text)
    assert np.array_equal(again.times, m.times)
    assert again.step_seconds == m.step_seconds
    assert matrix_to_json(again) == text


@pytest.mark.parametrize(
    "times, entry",
    [
        ([[[0, 1.5, 2.5], [2.5, 0, 0.5], [1, 3.5, 0]]], "times[0][0][1] = 1.5"),
        ([[[0, 1.0], [2.0**63, 0]]], "times[0][1][0] = 9.223372036854776e+18"),
    ],
)
def test_matrix_json_refuses_a_time_it_cannot_write_exactly(times, entry):
    # saving an averaged matrix must not write another matrix than it holds
    m = MultiLayerMatrix(times=times, step_seconds=3600)
    with pytest.raises(InputError, match=re.escape(entry) + "$"):
        matrix_to_json(m)


def test_matrix_json_writes_whole_float_times_as_integers(rng):
    layer = random_layers(rng, 4, 1)[0]
    avg = average_matrix(make_matrix([layer, layer], 1800))  # float means, all whole
    text = matrix_to_json(avg)
    assert text == matrix_to_json(make_matrix([layer], avg.step_seconds))
    assert np.array_equal(matrix_from_json(text).times, avg.times)


def test_matrix_json_ignores_a_legacy_closed_flag():
    # older files carry "closed"; it never changed how a matrix is read
    times = [[[0, 5], [7, 0]]]
    for closed in (True, False, "no"):
        m = matrix_from_json(_matrix_document(times, closed=closed))
        assert m.times.tolist() == times and m.step_seconds == 60


def test_instance_json_round_trip():
    inst = Instance(
        nodes=(Node(0, 48.85, 2.35, "Depot"), Node(1, 48.86, 2.36, "Client 1"))
    )
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text


def _instance_document(**node_fields):
    nodes = [{"id": 0, "lat": 48.85, "lon": 2.35, "label": "Depot"},
             {"id": 1, "lat": 48.86, "lon": 2.36, "label": "Client 1", **node_fields}]
    return {"version": 1, "depot_index": 0, "nodes": nodes}


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("id", 1.9, "integer"),
        ("id", True, "integer"),
        ("lat", "48.85", "number"),
        ("lon", True, "number"),
        ("label", 7, "string"),
    ],
)
def test_instance_json_rejects_coerced_node_fields(field, value, kind):
    # `kind` is the JSON type the field needs; Instance's node rule names it
    text = json.dumps(_instance_document(**{field: value}))
    with pytest.raises(InputError) as info:
        instance_from_json(text)
    rule = {"integer": "an integer in [0, 2)", "string": "a string",
            "number": f"a finite number in {'[-90, 90]' if field == 'lat' else '[-180, 180]'}"}
    assert str(info.value) == f"nodes[1].{field} must be {rule[kind]}, got {value!r}"


@pytest.mark.parametrize("depot", ["0", 0.0, False, 3])
def test_instance_json_rejects_a_depot_other_than_node_0(depot):
    text = json.dumps({**_instance_document(), "depot_index": depot})
    with pytest.raises(InputError) as info:
        instance_from_json(text)
    assert str(info.value) == f"depot_index must be an integer in [0, 1), got {depot!r}"


def test_instance_json_reads_integer_coordinates_and_a_missing_label():
    doc = _instance_document(lat=48, lon=2)
    del doc["nodes"][1]["label"]
    del doc["depot_index"]
    assert instance_from_json(json.dumps(doc)).nodes[1] == Node(1, 48.0, 2.0, "")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("nodes"),
        lambda doc: doc["nodes"][1].pop("lat"),
        lambda doc: doc.update(nodes=5),
        lambda doc: doc["nodes"].append(7),
    ],
    ids=["no-nodes", "node-without-lat", "nodes-a-number", "node-not-an-object"],
)
def test_instance_json_refuses_a_malformed_document(edit):
    doc = _instance_document()
    edit(doc)
    with pytest.raises(InputError, match="^malformed instance document: "):
        instance_from_json(json.dumps(doc))


# --- the node rule: Instance checks every node, loaded or built in code ------


def _coordinate(low, high):
    """A coordinate in [low, high] as a Python or numpy int or float."""
    return st.one_of(st.floats(low, high), st.integers(low, high),
                     st.floats(low, high).map(np.float64), st.integers(low, high).map(np.int64))


@st.composite
def _nodes(draw, max_label=8):
    """Valid nodes in any id order, ids as Python or numpy integers."""
    n = draw(st.integers(2, 6))
    as_id = draw(st.sampled_from([int, np.int64, np.uint16]))
    return [
        Node(as_id(i), draw(_coordinate(-90, 90)), draw(_coordinate(-180, 180)),
             draw(st.text(max_size=max_label)))
        for i in draw(st.permutations(range(n)))
    ]


@given(_nodes())
def test_instances_built_in_code_round_trip_through_json(nodes):
    inst = Instance(nodes=nodes)
    assert [node.id for node in inst.nodes] == list(range(len(nodes)))  # ordered by id
    for node in inst.nodes:
        fields = (node.id, node.lat, node.lon, node.label)
        assert [type(v) for v in fields] == [int, float, float, str]
    assert all(inst.nodes[node.id] == node for node in nodes)
    assert instance_from_json(instance_to_json(inst)) == inst


_BAD_COORDINATES = [True, "48.8", None, float("nan"), float("inf"), -float("inf")]
_BAD_FIELDS = [
    *[("id", v) for v in (1.0, True, "1", None, "gap", "repeat")],
    *[("lat", v) for v in (*_BAD_COORDINATES, 90.5, -91)],
    *[("lon", v) for v in (*_BAD_COORDINATES, 180.5, -181)],
    ("label", 5),
]


def _plain(value):
    """A numpy scalar as the Python number json writes; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


@given(_nodes(max_label=5), st.data(), st.sampled_from(_BAD_FIELDS))
def test_a_bad_node_field_is_refused_alike_in_code_and_in_a_file(nodes, data, bad):
    field, value = bad
    pos = data.draw(st.integers(0, len(nodes) - 1))
    if value == "gap":  # no node keeps the id this one had
        value = len(nodes)
    elif value == "repeat":  # the error names the later of the two positions
        value = nodes[pos - 1].id
    nodes[pos] = Node(**{**vars(nodes[pos]), field: value})
    with pytest.raises(InputError) as in_code:
        Instance(nodes=nodes)
    message = str(in_code.value)
    if bad[1] == "repeat":
        assert re.fullmatch(rf"nodes\[\d\]\.id = {value} repeats an earlier node's id", message)
    else:
        assert message.startswith(f"nodes[{pos}].{field} must be ")
        assert message.endswith(f", got {value!r}")
    doc = {"version": 1, "nodes": [{k: _plain(v) for k, v in vars(node).items()} for node in nodes]}
    text = json.dumps(doc).replace("Infinity", "1e400")  # json.loads reads 1e400 as inf
    with pytest.raises(InputError) as from_file:
        instance_from_json(text)
    if value != value:  # NaN has no JSON spelling: the reader refuses the text itself
        assert str(from_file.value) == "instance is not valid JSON: NaN is not a JSON number"
    else:
        assert str(from_file.value) == message


def test_matrix_json_rejects_bad_documents():
    with pytest.raises(InputError):
        matrix_from_json("not json")
    with pytest.raises(InputError):
        matrix_from_json(json.dumps({"version": 2}))
    doc = {
        "version": 1,
        "n_nodes": 3,
        "n_layers": 2,
        "step_seconds": 60,
        "times": [[[0, 1], [1, 0]]],  # header disagrees with the array
    }
    with pytest.raises(InputError):
        matrix_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"version": 1, "n_nodes": 2, "n_layers": 1, "step_seconds": 60}',
         "malformed matrix document: 'times'"),
        ('{"version": 1, "n_nodes": 2, "n_layers": 1, "step_seconds": 60,'
         ' "times": [[[0, 5], [7]]]}',
         "times must have shape (layers, n, n), got (1, 2)"),
        ("[[[0, 5], [7, 0]]]", "matrix document must be a JSON object"),
    ],
    ids=["no-times", "ragged-times", "array"],
)
def test_matrix_json_names_what_is_wrong_with_a_document(text, message):
    with pytest.raises(InputError) as info:
        matrix_from_json(text)
    assert str(info.value) == message


def _matrix_document(times, **header):
    return json.dumps({
        "version": 1,
        "n_nodes": len(times[0]),
        "n_layers": len(times),
        "step_seconds": 60,
        "times": times,
        **header,
    })


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("step_seconds", 7.9, "integer"),
        ("step_seconds", True, "integer"),
        ("step_seconds", "60", "integer"),
        ("n_nodes", 2.0, "integer"),
        ("n_layers", True, "integer"),
    ],
)
def test_matrix_json_rejects_coerced_header_fields(field, value, kind):
    text = _matrix_document([[[0, 5], [5, 0]]], **{field: value})
    with pytest.raises(InputError) as info:
        matrix_from_json(text)
    # one layer, so the step may reach 2**63 - 1; the matrix covers 2 nodes at least
    low = 2 if field == "n_nodes" else 1
    assert str(info.value) == f"{field} must be an {kind} in [{low}, 2**63), got {value!r}"


def test_matrix_json_rejects_float_entries():
    # json.loads reads 7.9 as a float, which an int64 conversion truncates to 7
    times = [[[0, 5], [5, 0]], [[0, 7.9], [2.5, 0]]]
    with pytest.raises(InputError) as info:
        matrix_from_json(_matrix_document(times))
    assert str(info.value) == "times[1][0][1] must be an integer in [-2**63, 2**63), got 7.9"


def test_matrix_json_rejects_bool_entries():
    # json.loads reads true as a bool, which an int64 conversion turns into 1
    times = [[[0, 5], [True, 0]]]
    with pytest.raises(InputError) as info:
        matrix_from_json(_matrix_document(times))
    assert str(info.value) == "times[0][1][0] must be an integer in [-2**63, 2**63), got True"


def test_matrix_json_rejects_negative_entries_even_when_marked_closed():
    times = [[[0, 5], [5, 0]], [[0, 4], [-3, 0]]]
    with pytest.raises(InputError, match=r"must be >= 0; times\[1\]\[1\]\[0\] = -3$"):
        matrix_from_json(_matrix_document(times, closed=True))


def test_matrix_json_rejects_entries_beyond_64_bits():
    times = [[[0, 5], [2**63, 0]]]
    with pytest.raises(InputError) as info:
        matrix_from_json(_matrix_document(times))
    assert str(info.value) == f"times[0][1][0] must be an integer in [-2**63, 2**63), got {2**63}"


# --- solver params ----------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_grasp", 2.0),
        ("k_grasp", True),
        ("n_improve", 2.5),
        ("l_delete", "3"),
        ("k_del", None),
        ("k_ins", np.float64(1)),
        ("seed", 1.5),
    ],
)
def test_solver_params_reject_values_that_are_not_integers(field, value):
    with pytest.raises(InputError) as info:
        SolverParams(**{field: value})
    low, high = {"n_improve": (0, "2**63"), "seed": (0, "2**64")}.get(field, (1, "2**63"))
    assert str(info.value) == f"{field} must be an integer in [{low}, {high}), got {value!r}"


def test_solver_params_store_numpy_integers_as_python_ints():
    params = SolverParams(n_improve=np.int64(4), seed=np.uint64(2**63))
    assert type(params.n_improve) is int and params.n_improve == 4
    assert type(params.seed) is int and params.seed == 2**63


# --- the node-count rule ----------------------------------------------------


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda inst, m: solve(inst, m, SolverParams(n_grasp=1, n_improve=0)), "matrix"),
        (lambda inst, m: brute_force_optimum(inst, m), "matrix"),
        (lambda inst, m: check_milp_feasibility(route_to_arcs((1, 2, 3)), inst.n_nodes),
         "solution"),
        (lambda inst, m: RecordedBackend.from_matrix(inst, m, 0), "matrix"),
        (lambda inst, m: execute_fetch(plan_fetch(4, 1, start_epoch=0), None, inst), "plan"),
    ],
    ids=["solve", "brute_force_optimum", "check_milp_feasibility", "from_matrix",
         "execute_fetch"],
)
def test_every_node_count_meets_the_one_rule(call, what):
    # each call is given 4 nodes for a 3-node instance
    with pytest.raises(InputError) as info:
        call(grid_instance(3), constant_matrix(4, 60))
    assert str(info.value) == f"{what} covers 4 nodes but the instance has 3"
