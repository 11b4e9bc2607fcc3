"""GeoJSON export of a solved tour, for any standard map viewer.

Emits one Point per visited node (depot first) and, for a non-empty tour, a
LineString of straight segments through the visit order. Coordinates follow
the GeoJSON convention: longitude first, then latitude.
"""

from __future__ import annotations

from .errors import InputError
from .model import Instance, _order, _real


def route_geojson(order, departures, instance: Instance) -> dict:
    """The tour as a FeatureCollection: `order` must pass `_order` below
    instance.n_nodes, and each of its len(order) + 1 departures, depot first,
    pass `_real` with a bound of 0."""
    order = _order(order, instance.n_nodes)
    departures = [_real(v, f"departures[{i}]", 0) for i, v in enumerate(departures)]
    if len(departures) != len(order) + 1:
        raise InputError(
            f"expected {len(order) + 1} departures for {len(order)} visits, "
            f"got {len(departures)}"
        )

    def point(node_id, visit_order):
        node = instance.nodes[node_id]
        return {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [node.lon, node.lat]},
            "properties": {
                "id": node.id,
                "label": node.label,
                "visit_order": visit_order,
                "departure_s": int(round(departures[visit_order])),
            },
        }

    features = [point(node_id, pos) for pos, node_id in enumerate((0, *order))]
    if order:
        path = [[instance.nodes[i].lon, instance.nodes[i].lat] for i in (0, *order, 0)]
        line = {
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": path},
            "properties": {"stops": len(order)},
        }
        features.append(line)
    return {"type": "FeatureCollection", "features": features}
