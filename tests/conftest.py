"""Shared fixtures and independent reference implementations.

The helpers here deliberately re-derive results from first principles (plain
Python lists, explicit loops) so library code is always checked against a
second, separately written path.
"""

import numpy as np
import pytest

from tdvrp.model import Instance, MultiLayerMatrix, Node


def make_matrix(layers, step_seconds):
    """Matrix from plain nested lists."""
    return MultiLayerMatrix(times=np.asarray(layers, dtype=np.int64), step_seconds=step_seconds)


def zero_diagonal(times):
    """`times` with the diagonal of every layer set to 0 in place: a node is
    0 s from itself, and a matrix refuses anything else."""
    n = times.shape[-1]
    times[..., range(n), range(n)] = 0
    return times


def constant_matrix(n_nodes, value, n_layers=1, step_seconds=3600):
    arr = np.full((n_layers, n_nodes, n_nodes), value, dtype=np.int64)
    return MultiLayerMatrix(times=zero_diagonal(arr), step_seconds=step_seconds)


def random_layers(rng, n_nodes, n_layers, low=60, high=3600):
    return zero_diagonal(rng.integers(low, high, size=(n_layers, n_nodes, n_nodes)))


def naive_departures(order, layers, step_seconds):
    """Reference schedule: walk the closed tour, costing each arc at the
    layer of its departure time. Returns (departures, total)."""
    order = list(order)
    n_layers = len(layers)
    k = 0
    departures = [0]
    path = [0] + order + ([0] if order else [])
    for a in range(len(path) - 1):
        s = int(k // step_seconds)
        if s >= n_layers:
            s = n_layers - 1
        k = k + layers[s][path[a]][path[a + 1]]
        if a < len(path) - 2:
            departures.append(k)
    return departures, k


def triangle_violations_scan(layer):
    """Exhaustive triple scan; returns (count, worst_excess)."""
    n = len(layer)
    count = 0
    worst = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                excess = layer[i][k] - layer[i][j] - layer[j][k]
                if excess > 0:
                    count += 1
                    worst = max(worst, excess)
    return count, worst


def grid_instance(n_nodes, spacing_deg=0.02):
    """Small instance on a lat/lon grid, depot at index 0."""
    nodes = []
    side = int(np.ceil(np.sqrt(n_nodes)))
    for i in range(n_nodes):
        lat = 48.8 + (i // side) * spacing_deg
        lon = 2.3 + (i % side) * spacing_deg
        nodes.append(Node(i, lat, lon, "Depot" if i == 0 else f"Client {i}"))
    return Instance(nodes=tuple(nodes))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
