"""Golden tours and cost traces pinned from the scalar evaluator.

Every value was recorded with the original one-tour-at-a-time evaluation,
before candidate moves were priced in batches. Batched pricing must add the
same terms in the same order, so integer and float (averaged matrix) results
stay equal bit for bit; floats are compared by `float.hex`.
"""

import numpy as np
import pytest

from tdvrp.grasp import solve
from tdvrp.instances import bundled_paris
from tdvrp.model import MultiLayerMatrix, SolverParams, average_matrix
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import grid_instance, random_layers

PEAK_PROFILE = TrafficProfile(
    base_speed_kmh=22.0,
    peak_windows=((0, 1, 2.5), (3, 6, 1.9)),
    jitter_range=(0.9, 1.2),
    seed=7,
)
PARIS_PARAMS = dict(n_grasp=4, k_grasp=3, n_improve=6, l_delete=4, k_del=3, k_ins=2)
# l_delete equals the client count: every round deletes down to an empty tour
RANDOM9_PARAMS = dict(n_grasp=3, k_grasp=2, n_improve=5, l_delete=8, k_del=2, k_ins=2)

GOLDEN = {
    ('paris-layered', 0): (
        (21, 20, 18, 19, 30, 2, 7, 14, 15, 16, 17, 3, 4, 1, 23, 27, 28, 26, 6, 25, 9, 24, 13, 12, 10, 29, 11, 5, 8, 22),
        (39453, 39456, 43139, 41056, 36965, 34690, 34690, 33389, 33389, 33389,),
    ),
    ('paris-layered', 1): (
        (4, 22, 5, 8, 9, 6, 24, 26, 28, 25, 23, 1, 21, 20, 16, 17, 14, 7, 18, 19, 15, 30, 2, 13, 11, 10, 29, 12, 3, 27),
        (34290, 37482, 36681, 37864, 31730, 31730, 31730, 31730, 31730, 31730,),
    ),
    ('paris-layered', 2): (
        (8, 5, 30, 2, 13, 12, 10, 11, 29, 22, 23, 9, 24, 26, 28, 3, 25, 6, 27, 1, 4, 21, 15, 14, 7, 16, 17, 20, 19, 18),
        (39268, 36683, 35276, 37018, 35276, 35276, 35276, 35276, 35276, 35276,),
    ),
    ('paris-layered', 3): (
        (4, 21, 19, 15, 14, 7, 17, 16, 20, 18, 1, 23, 27, 3, 25, 6, 28, 26, 11, 10, 12, 29, 24, 9, 30, 2, 13, 5, 8, 22),
        (33323, 33932, 42864, 39112, 32711, 32711, 32711, 32711, 32711, 32711,),
    ),
    ('paris-averaged', 0): (
        (4, 19, 18, 14, 15, 30, 2, 7, 17, 16, 20, 21, 1, 27, 3, 28, 25, 26, 6, 9, 24, 11, 10, 29, 12, 13, 5, 8, 23, 22),
        ('0x1.586a555555556p+15', '0x1.6b5e000000001p+15', '0x1.6b52555555556p+15', '0x1.51b8555555556p+15', '0x1.4c56aaaaaaaaap+15', '0x1.4c56aaaaaaaaap+15', '0x1.477c555555556p+15', '0x1.3037aaaaaaaabp+15', '0x1.3037aaaaaaaabp+15', '0x1.3037aaaaaaaabp+15',),
    ),
    ('paris-averaged', 1): (
        (18, 20, 15, 14, 2, 30, 7, 17, 16, 19, 21, 1, 4, 8, 5, 10, 11, 29, 12, 13, 24, 9, 6, 3, 27, 28, 26, 25, 23, 22),
        ('0x1.4a0aaaaaaaaa9p+15', '0x1.451eaaaaaaaabp+15', '0x1.4ee3555555555p+15', '0x1.4d46aaaaaaaa9p+15', '0x1.3a32555555555p+15', '0x1.3a32555555555p+15', '0x1.34db555555555p+15', '0x1.34db555555555p+15', '0x1.34db555555555p+15', '0x1.34db555555555p+15',),
    ),
    ('random9-delete-all', 0): (
        (5, 8, 6, 2, 3, 1, 4, 7),
        (9113, 9217, 10929, 9113, 9113, 9113, 9113, 8843,),
    ),
    ('random9-delete-all', 1): (
        (7, 5, 4, 6, 2, 3, 8, 1),
        (10278, 5690, 10053, 5690, 5690, 5690, 5690, 5690,),
    ),
    ('random9-delete-all', 2): (
        (5, 6, 2, 3, 8, 1, 4, 7),
        (9213, 8969, 7836, 7836, 7836, 7836, 7836, 7836,),
    ),
}


def _cases():
    paris = bundled_paris()
    layered = generate_synthetic(paris, 6, 7200, PEAK_PROFILE)
    random9 = MultiLayerMatrix(
        times=random_layers(np.random.default_rng(77), 9, 4), step_seconds=1500
    )
    return {
        "paris-layered": (paris, layered, PARIS_PARAMS),
        "paris-averaged": (paris, average_matrix(layered), PARIS_PARAMS),
        "random9-delete-all": (grid_instance(9), random9, RANDOM9_PARAMS),
    }


CASES = _cases()


def _exact(value):
    return value.hex() if isinstance(value, float) else int(value)


@pytest.mark.parametrize("tag,seed", sorted(GOLDEN))
def test_solve_reproduces_golden_tour_and_trace(tag, seed):
    instance, matrix, params = CASES[tag]
    result = solve(instance, matrix, SolverParams(seed=seed, **params))
    tour, trace = GOLDEN[tag, seed]
    assert result.best_route.order == tour
    assert tuple(_exact(v) for v in result.cost_trace) == trace
    assert _exact(result.best_schedule.total_cost) == trace[-1]
