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
and raised a bare TypeError on 1.0. Some accepted values (2**63 - 1
nodes) would plan or solve for ever, so acceptance is checked by stopping
the call with `_Accepted` just after the argument has passed the rule.
"""

import numpy as np
import pytest

from tdvrp import compare, fetch, grasp, instances, model, synth
from tdvrp.errors import InputError
from tdvrp.model import MultiLayerMatrix, SolverParams

from conftest import constant_matrix, grid_instance

MATRIX = constant_matrix(3, 60, n_layers=2, step_seconds=60)
INSTANCE = grid_instance(3)
FAST = SolverParams(n_grasp=2, n_improve=1, l_delete=1)


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
