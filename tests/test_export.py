import numpy as np
import pytest

from tdvrp.errors import InputError
from tdvrp.export import route_geojson
from tdvrp.instances import bundled_paris

from conftest import grid_instance


def _points(geo):
    return [f for f in geo["features"] if f["geometry"]["type"] == "Point"]


def _lines(geo):
    return [f for f in geo["features"] if f["geometry"]["type"] == "LineString"]


def test_empty_route_is_depot_point_only():
    geo = route_geojson([], [0], grid_instance(4))
    assert geo["type"] == "FeatureCollection"
    assert len(_points(geo)) == 1
    assert _lines(geo) == []
    assert _points(geo)[0]["properties"]["id"] == 0


def test_two_client_tour_linestring_has_four_coordinates():
    inst = grid_instance(3)
    geo = route_geojson([2, 1], [0, 600, 1200], inst)
    (line,) = _lines(geo)
    assert len(line["geometry"]["coordinates"]) == 4
    # longitude first, per the GeoJSON coordinate order
    assert line["geometry"]["coordinates"][0] == [inst.nodes[0].lon, inst.nodes[0].lat]
    assert line["geometry"]["coordinates"][1] == [inst.nodes[2].lon, inst.nodes[2].lat]


def test_visit_order_and_departures_in_properties():
    inst = grid_instance(4)
    geo = route_geojson([3, 1, 2], [0, 100, 250, 400], inst)
    points = _points(geo)
    by_visit = {p["properties"]["visit_order"]: p["properties"] for p in points}
    assert by_visit[0]["id"] == 0 and by_visit[0]["departure_s"] == 0
    assert by_visit[1]["id"] == 3 and by_visit[1]["departure_s"] == 100
    assert by_visit[3]["id"] == 2 and by_visit[3]["departure_s"] == 400


def test_bundled_instance_coordinates_round_trip():
    inst = bundled_paris()
    order = list(range(1, 31))
    departures = list(range(31))
    geo = route_geojson(order, departures, inst)
    points = _points(geo)
    assert len(points) == 31
    by_id = {p["properties"]["id"]: p["geometry"]["coordinates"] for p in points}
    assert by_id[0] == [2.339546, 48.845761]
    assert by_id[1] == [2.348344, 48.847397]
    assert by_id[30] == [2.210583, 48.718288]


def test_out_of_range_index_is_named():
    with pytest.raises(InputError, match="9"):
        route_geojson([9], [0, 100], grid_instance(4))


def test_departure_count_must_match():
    with pytest.raises(InputError):
        route_geojson([1, 2], [0, 100], grid_instance(4))


@pytest.mark.parametrize("departure", [float("nan"), float("inf"), -5, "x", True, None])
def test_each_departure_is_a_finite_number_at_least_zero(departure):
    with pytest.raises(InputError) as info:
        route_geojson([1, 2], [0, departure, 700], grid_instance(3))
    assert str(info.value) == f"departures[1] must be a finite number >= 0, got {departure!r}"


def test_departures_may_be_floats_and_numpy_numbers():
    geo = route_geojson([1, 2], [0.0, np.float64(600.4), np.int64(1200)], grid_instance(3))
    assert [p["properties"]["departure_s"] for p in _points(geo)] == [0, 600, 1200]
