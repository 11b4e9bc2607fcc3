import numpy as np
import pytest

from tdvrp.errors import InputError
from tdvrp.instances import bundled_paris, random_instance
from tdvrp.model import Instance, Node, matrix_to_json, validate_matrix
from tdvrp.synth import TrafficProfile, generate_synthetic, haversine_km, min_plus_closure

from conftest import grid_instance, triangle_violations_scan


def test_haversine_known_distance():
    # Paris to Marseille is about 660 km great-circle
    d = haversine_km(48.8566, 2.3522, 43.2965, 5.3698)
    assert 640 < d < 680


def test_haversine_zero_for_identical_points():
    assert haversine_km(48.85, 2.35, 48.85, 2.35) == 0


def test_profile_validation():
    with pytest.raises(InputError):
        TrafficProfile(base_speed_kmh=0)
    with pytest.raises(InputError):
        TrafficProfile(peak_windows=((0, 2, 0.5),))
    with pytest.raises(InputError):
        TrafficProfile(peak_windows=((2, 2, 1.5),))
    with pytest.raises(InputError):
        TrafficProfile(jitter_range=(0.0, 1.0))


@pytest.mark.parametrize(
    "window, expected",
    [
        ((0.5, 1.5, 2.0), "peak start must be an integer in [0, 2**63), got 0.5"),
        ((True, 3, 1.5), "peak start must be an integer in [0, 2**63), got True"),
        ((-1, 3, 1.5), "peak start must be an integer in [0, 2**63), got -1"),
        ((1, 2.5, 1.5), "peak end must be an integer in [2, 2**63), got 2.5"),
        ((2, 2, 1.5), "peak end must be an integer in [3, 2**63), got 2"),
        ((0, 2, True), "peak multiplier must be a finite number >= 1, got True"),
        ((0, 2, "2"), "peak multiplier must be a finite number >= 1, got '2'"),
        ((0, 2, float("nan")), "peak multiplier must be a finite number >= 1, got nan"),
        ((0, 2, 0.5), "peak multiplier must be a finite number >= 1, got 0.5"),
        ((0, 2), "peak window must be (start, end, multiplier), got (0, 2)"),
        (3, "peak window must be (start, end, multiplier), got 3"),
    ],
)
def test_peak_windows_are_whole_layers_and_real_multipliers(window, expected):
    with pytest.raises(InputError) as info:
        TrafficProfile(peak_windows=[(0, 1, 2.0), window])
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "field, expected",
    [
        ({"base_speed_kmh": True}, "base speed must be a finite number > 0, got True"),
        ({"base_speed_kmh": "25"}, "base speed must be a finite number > 0, got '25'"),
        ({"base_speed_kmh": 0}, "base speed must be a finite number > 0, got 0"),
        ({"base_speed_kmh": float("inf")}, "base speed must be a finite number > 0, got inf"),
        ({"jitter_range": (True, 1.0)}, "jitter low must be a finite number > 0, got True"),
        ({"jitter_range": ("0.9", 1.2)}, "jitter low must be a finite number > 0, got '0.9'"),
        ({"jitter_range": (0.0, 1.0)}, "jitter low must be a finite number > 0, got 0.0"),
        ({"jitter_range": (0.9, "1.2")}, "jitter high must be a finite number >= 0.9, got '1.2'"),
        ({"jitter_range": (1.2, 0.9)}, "jitter high must be a finite number >= 1.2, got 0.9"),
        ({"jitter_range": (0.9, 1.0, 1.1)},
         "jitter range must be (lo, hi), got (0.9, 1.0, 1.1)"),
    ],
)
def test_speed_and_jitter_are_finite_real_numbers(field, expected):
    # True once passed as 1.0, and a string raised a bare TypeError
    with pytest.raises(InputError) as info:
        TrafficProfile(**field)
    assert str(info.value) == expected


def test_peak_window_layers_may_be_numpy_integers():
    (window,) = TrafficProfile(peak_windows=[(np.int64(1), np.int64(3), 2.0)]).peak_windows
    assert window == (1, 3, 2.0) and type(window[0]) is type(window[1]) is int


def test_layer_multiplier_windows_are_half_open():
    profile = TrafficProfile(peak_windows=((1, 3, 2.0),))
    assert [profile.layer_multiplier(s) for s in range(4)] == [1.0, 2.0, 2.0, 1.0]


def test_overlapping_windows_multiply():
    profile = TrafficProfile(peak_windows=((0, 2, 2.0), (1, 3, 1.5)))
    assert profile.layer_multiplier(1) == 3.0


def test_min_plus_closure_never_increases():
    rng = np.random.default_rng(5)
    d = rng.integers(1, 100, size=(8, 8)).astype(np.int64)
    np.fill_diagonal(d, 0)
    closed = min_plus_closure(d)
    assert (closed <= d).all()
    assert triangle_violations_scan(closed.tolist()) == (0, 0)


def test_flat_profile_gives_symmetric_constant_layers():
    inst = grid_instance(5)
    profile = TrafficProfile(base_speed_kmh=30.0)
    m = generate_synthetic(inst, 3, 3600, profile)
    assert np.array_equal(m.times[0], m.times[0].T)
    assert np.array_equal(m.times[0], m.times[1])
    assert np.array_equal(m.times[0], m.times[2])
    assert validate_matrix(m).ok


def test_single_peak_layer_doubles_exactly():
    inst = grid_instance(6)
    profile = TrafficProfile(base_speed_kmh=25.0, peak_windows=((1, 2, 2.0),))
    m = generate_synthetic(inst, 3, 3600, profile)
    assert np.array_equal(m.times[1], 2 * m.times[0])
    assert np.array_equal(m.times[2], m.times[0])


def test_generated_matrices_are_clean(rng):
    inst = bundled_paris()
    for seed in range(5):
        profile = TrafficProfile(
            base_speed_kmh=float(rng.uniform(15, 35)),
            peak_windows=((0, 2, float(rng.uniform(1.2, 2.5))),),
            jitter_range=(0.85, 1.25),
            seed=seed,
        )
        m = generate_synthetic(inst, 4, 7200, profile)
        report = validate_matrix(m)
        assert report.ok, report.summary()
        assert (m.times >= 0).all()


def test_same_profile_regenerates_identical_bytes():
    inst = bundled_paris()
    profile = TrafficProfile(
        base_speed_kmh=24.0,
        peak_windows=((0, 1, 1.8), (4, 6, 1.5)),
        jitter_range=(0.9, 1.15),
        seed=99,
    )
    a = generate_synthetic(inst, 6, 7200, profile)
    b = generate_synthetic(inst, 6, 7200, profile)
    assert matrix_to_json(a) == matrix_to_json(b)


def test_jitter_makes_directions_differ():
    inst = bundled_paris()
    profile = TrafficProfile(base_speed_kmh=25.0, jitter_range=(0.8, 1.3), seed=3)
    m = generate_synthetic(inst, 2, 7200, profile)
    layer = m.times[0]
    assert (layer != layer.T).any()


def test_coincident_nodes_warn_but_generate():
    nodes = (
        Node(0, 48.85, 2.35, "Depot"),
        Node(1, 48.85, 2.35, "Client 1"),  # same spot as the depot
        Node(2, 48.86, 2.36, "Client 2"),
    )
    inst = Instance(nodes=nodes)
    with pytest.warns(UserWarning, match="coincident"):
        m = generate_synthetic(inst, 1, 3600, TrafficProfile())
    assert m.times[0, 0, 1] == 0


