"""The one integer rule at the boundary: every integer argument the package
takes from outside goes through `model._integer` with its bounds.

Each row names an entry point, one of its integer arguments, that
argument's bounds [low, high) and a call that passes a value for it with
every other argument valid. A bool, a whole and a fractional float, a numpy
float, a numeric string, None, low - 1, high and an unsigned numpy value at
high are refused with one InputError form that names the argument and its
bounds; a numpy integer, low and high - 1 are accepted. Before
the rule some of these were coerced or crashed: QuotaBudget took 2.5 and 0,
from_matrix truncated a fractional epoch, travel_time read True as node 1
and raised a bare TypeError on 1.0, and plan_fetch raised one from range()
on 4.0 nodes, planned one layer for True and departures 1.5 s apart. Some accepted values (2**63 - 1
nodes) would plan or solve for ever, so acceptance is checked by stopping
the call with `_Accepted` just after the argument has passed the rule.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdvrp import compare, fetch, grasp, instances, model, oracle, synth
from tdvrp.errors import InputError, PermanentBackendError
from tdvrp.model import MultiLayerMatrix, SolverParams

from conftest import constant_matrix, grid_instance

MATRIX = constant_matrix(3, 60, n_layers=2, step_seconds=60)
INSTANCE = grid_instance(3)
FAST = SolverParams(n_grasp=2, n_improve=1, l_delete=1)
ARCS = oracle.route_to_arcs((1, 2))


def _params(name):
    return (f"SolverParams-{name}", model, name, lambda v: SolverParams(**{name: v}))


def _plan(name, low, high):
    """A plan_fetch row: 3 nodes, 2 layers of the default 7200 s from epoch 0,
    with the value passed as `name`."""
    base = {"n_nodes": 3, "n_layers": 2, "start_epoch": 0}
    return (f"plan_fetch-{name}", fetch, name, lambda v: fetch.plan_fetch(**{**base, name: v}),
            low, high)


# (entry point and argument, module whose `_integer` checks it, argument name,
#  call, low, high)
ROWS = [
    (*_params("n_grasp"), 1, 2**63),
    (*_params("k_grasp"), 1, 2**63),
    (*_params("n_improve"), 0, 2**63),
    (*_params("l_delete"), 1, 2**63),
    (*_params("k_del"), 1, 2**63),
    (*_params("k_ins"), 1, 2**63),
    (*_params("seed"), 0, 2**64),
    ("MultiLayerMatrix-step_seconds", model, "step_seconds",
     lambda v: MultiLayerMatrix(np.zeros((3, 2, 2), np.int64), v), 1, 2**63 // 3),
    ("travel_time-i", model, "i", lambda v: model.travel_time(v, 2, 0, MATRIX), 0, 3),
    ("travel_time-j", model, "j", lambda v: model.travel_time(2, v, 0, MATRIX), 0, 3),
    ("QuotaBudget-daily_quota", fetch, "daily_quota", lambda v: fetch.QuotaBudget(v), 1, 2**63),
    ("max_nodes_single_day-n_layers", fetch, "n_layers",
     lambda v: fetch.max_nodes_single_day(v, 100), 1, 2**63),
    ("max_nodes_single_day-daily_quota", fetch, "daily_quota",
     lambda v: fetch.max_nodes_single_day(2, v), 1, 2**63),
    _plan("n_nodes", 2, 2**63),
    _plan("n_layers", 1, 2**63),
    _plan("step_seconds", 1, 2**62),
    _plan("elements_per_request_limit", 1, 2**63),
    _plan("daily_quota", 1, 2**63),
    _plan("start_epoch", 0, 2**63 - 7200),
    ("RecordedBackend.from_matrix-start_epoch", fetch, "start_epoch",
     lambda v: fetch.RecordedBackend.from_matrix(INSTANCE, MATRIX, v), 0, 2**63 - 60),
    ("generate_synthetic-n_layers", synth, "n_layers",
     lambda v: synth.generate_synthetic(INSTANCE, v, 60, synth.TrafficProfile()), 1, 2**63),
    ("TrafficProfile-seed", synth, "seed", lambda v: synth.TrafficProfile(seed=v), 0, 2**64),
    ("random_instance-n_clients", instances, "n_clients",
     lambda v: instances.random_instance(v), 1, 2**63),
    ("random_instance-seed", instances, "seed",
     lambda v: instances.random_instance(2, seed=v), 0, 2**64),
    ("run_compare-n_seeds", compare, "n_seeds",
     lambda v: compare.run_compare(INSTANCE, MATRIX, FAST, v), 1, 2**63),
    ("construct_route-k_grasp", grasp, "k_grasp",
     lambda v: grasp.construct_route(MATRIX, v, np.random.default_rng(0), 1), 1, 2**63),
    ("check_milp_feasibility-n", oracle, "n", lambda v: oracle.check_milp_feasibility(ARCS, v),
     2, 2**63),
]


class _Accepted(Exception):
    pass


@pytest.mark.parametrize("entry, module, name, call, low, high",
                         [pytest.param(*row, id=row[0]) for row in ROWS])
def test_integer_arguments_follow_the_one_rule(entry, module, name, call, low, high, monkeypatch):
    refused = [True, float(low), low + 0.5, np.float64(low), str(low), low - 1, high]
    if entry != "plan_fetch-start_epoch":  # there None plans from two weeks after now
        refused.append(None)
    if high < 2**64:
        refused.append(np.uint64(high))  # compared as a Python int, it does not wrap
    # a power of two past 2**32 reads 2**e
    top = f"2**{high.bit_length() - 1}" if high > 2**32 and high & (high - 1) == 0 else high
    for value in refused:
        with pytest.raises(InputError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer in [{low}, {top}), got {value!r}"

    rule = module._integer

    def stop_once_checked(value, arg, *bounds):
        checked = rule(value, arg, *bounds)
        if arg == name:
            assert type(checked) is int
            raise _Accepted
        return checked

    monkeypatch.setattr(module, "_integer", stop_once_checked)
    numpy_value = np.uint64(high - 1) if high > 2**63 else np.int64(high - 1)
    for value in [numpy_value, np.int64(low), low, high - 1]:
        with pytest.raises(_Accepted):
            call(value)


# --- integers a document carries ----------------------------------------------
#
# Every integer read from a matrix file, a cache line or a provider reply meets
# the same rule, whichever reader parses it. Each row names a field, the
# error it raises, the prefix and name its message gives, its bounds and a
# read of a document holding the value there, all else valid. The values are
# what json.loads makes of true, 7.0, 7.5, "7", null, 2**63 and low - 1.


def _matrix(field):
    """Read a one-layer, two-node matrix file with `field`, or the entry
    times[0][0][1], set to the value."""
    def read(value, tmp_path):
        doc = {"version": 1, "n_nodes": 2, "n_layers": 1, "step_seconds": 60,
               "times": [[[0, 5], [5, 0]]]}
        if field == "times":
            doc["times"][0][0][1] = value
        else:
            doc[field] = value
        model.matrix_from_json(json.dumps(doc))
    return read


def _cache_line(key):
    """Read a cache file whose second line holds the value as `key`. Its
    lines are written without spaces, which the one-pass reader does not take,
    so the line-by-line reader parses them."""
    def read(value, tmp_path):
        lines = [{"o": 0, "d": 1, "t": 5, "s": 60}, {"o": 1, "d": 0, "t": 5, "s": 70, key: value}]
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in lines))
        fetch.read_cache_file(path)
    return read


def _provider(value, tmp_path):
    """Read a one-element provider reply whose duration has the value."""
    fetch._provider_grid([{"elements": [{"status": "OK", "duration": {"value": value}}]}], 1, 1)


# (field, error, message prefix, name as the message gives it, low, read); every
# high is 2**63. {path} is the cache file and {value} the duration's value as JSON
DOCUMENT_ROWS = [
    ("matrix-n_nodes", InputError, "", "n_nodes", 2, _matrix("n_nodes")),
    ("matrix-n_layers", InputError, "", "n_layers", 1, _matrix("n_layers")),
    ("matrix-step_seconds", InputError, "", "step_seconds", 1, _matrix("step_seconds")),
    ("matrix-times", InputError, "", "times[0][0][1]", -(2**63), _matrix("times")),
    *[(f"cache-{key}", InputError, "bad cache line 2 in {path}: ", f'"{key}"', -(2**63),
       _cache_line(key)) for key in "odts"],
    ("provider-duration", PermanentBackendError, "",
     'response element (0, 0) has duration {{"value": {value}}}, whose value', 0, _provider),
]


@pytest.mark.parametrize("error, prefix, name, low, read",
                         [pytest.param(*row[1:], id=row[0]) for row in DOCUMENT_ROWS])
def test_document_integers_follow_the_one_rule(error, prefix, name, low, read, tmp_path):
    shown = "-2**63" if low == -(2**63) else low
    for value in [True, 7.0, 7.5, "7", None, 2**63, low - 1]:
        with pytest.raises(error) as info:
            read(value, tmp_path)
        where = (prefix + name).format(path=tmp_path / "cache.jsonl", value=json.dumps(value))
        assert str(info.value) == f"{where} must be an integer in [{shown}, 2**63), got {value!r}"


# what json.loads can put in an array: ints, in int64 (its limits among them)
# or past it, bools, floats, strings and null
int64s = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])
json_values = (st.integers(-(2**64), 2**64) | st.sampled_from([-(2**63) - 1, 2**63])
               | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=2) | st.none())


def grids(values):
    """Lists of 1-3 rows of 1-4 entries drawn from `values`, as a JSON array gives them."""
    return st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(values, min_size=width, max_size=width),
                               min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(cells=grids(int64s) | grids(int64s | json_values))
def test_integer_arrays_match_the_rule_entry_by_entry(cells):
    # the rule for arrays gives each entry of a document's array to _integer,
    # in order, and returns the int64 array when all of them pass
    try:
        want = [[model._integer(v, f"x[{i}][{j}]", -(2**63)) for j, v in enumerate(row)]
                for i, row in enumerate(cells)]
    except InputError as exc:
        with pytest.raises(InputError) as info:
            model._integers(cells, "x")
        assert str(info.value) == str(exc)
    else:
        got = model._integers(cells, "x")
        assert got.dtype == np.int64 and got.tolist() == want
