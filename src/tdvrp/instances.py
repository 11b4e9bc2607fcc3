"""Bundled and randomly generated problem instances."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .model import Instance, Node, _integer, instance_from_json

PARIS_CENTER = (48.8566, 2.3522)
SPREAD_DEG = 0.12  # clients lie within this many degrees of the center


def bundled_paris() -> Instance:
    """The bundled 31-node Paris instance (depot plus 30 clients)."""
    text = resources.files("tdvrp").joinpath("data/paris31.json").read_text("utf-8")
    return instance_from_json(text)


def random_instance(n_clients: int, seed: int = 0) -> Instance:
    """Depot at the center of Paris, clients uniform in a square around it."""
    n_clients = _integer(n_clients, "n_clients", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0, 2**64))
    lat0, lon0 = PARIS_CENTER
    nodes = [Node(0, lat0, lon0, "Depot")]
    for i in range(1, n_clients + 1):
        lat = lat0 + rng.uniform(-SPREAD_DEG, SPREAD_DEG)
        lon = lon0 + rng.uniform(-SPREAD_DEG, SPREAD_DEG)
        nodes.append(Node(i, round(float(lat), 6), round(float(lon), 6), f"Client {i}"))
    return Instance(nodes=tuple(nodes))
