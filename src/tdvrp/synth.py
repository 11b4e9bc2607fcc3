"""Synthetic time-dependent traffic, for offline and reproducible experiments.

Free-flow times come from great-circle distances at a constant speed. Each
layer scales them by the congestion multiplier of its peak windows and by a
per-direction jitter factor (which makes the matrix asymmetric, like one-way
roads would). Every layer is then closed under min-plus so the triangle
inequality holds exactly, matching what a routing provider returns for
driving times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import Instance, MultiLayerMatrix, _integer, _real

EARTH_RADIUS_KM = 6371.0
# travel times stay below this, so that two of them add up within int64
# in the min-plus closure
_MAX_SECONDS = 2.0**62


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometres."""
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of the synthetic congestion.

    peak_windows are (start_layer, end_layer, multiplier) with the layer range
    half-open; overlapping windows multiply. jitter_range is the uniform range
    of a per-direction factor drawn once per ordered node pair, so (i, j) and
    (j, i) get independent values. The seed is an integer in [0, 2**64);
    window layers pass _integer and the other numbers _real.
    """

    base_speed_kmh: float = 25.0
    peak_windows: tuple = ()
    jitter_range: tuple = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        windows = []
        for window in self.peak_windows:
            try:
                start, end, mult = window
            except (TypeError, ValueError):
                what = "peak window must be (start, end, multiplier)"
                raise InputError(f"{what}, got {window!r}") from None
            mult = _real(mult, "peak multiplier", 1)
            start = _integer(start, "peak start", 0)
            windows.append((start, _integer(end, "peak end", start + 1), mult))
        object.__setattr__(self, "peak_windows", tuple(windows))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**64))
        _real(self.base_speed_kmh, "base speed", 0, strict=True)
        try:
            lo, hi = self.jitter_range
        except (TypeError, ValueError):
            raise InputError(f"jitter range must be (lo, hi), got {self.jitter_range!r}") from None
        lo = _real(lo, "jitter low", 0, strict=True)
        object.__setattr__(self, "jitter_range", (lo, _real(hi, "jitter high", lo)))

    def layer_multiplier(self, layer: int) -> float:
        mult = 1.0
        for start, end, m in self.peak_windows:
            if start <= layer < end:
                mult *= m
        return mult


def min_plus_closure(d: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path relaxation; never increases an entry."""
    d = d.copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def _seconds(times: np.ndarray, what: str) -> np.ndarray:
    """Float travel times rounded to int64 seconds; an InputError naming
    `what` if any is _MAX_SECONDS or more, or not a number."""
    times = np.rint(times)
    if not (times < _MAX_SECONDS).all():
        raise InputError(f"{what} gives travel times past 2**62 s")
    return times.astype(np.int64)


def generate_synthetic(
    instance: Instance, n_layers: int, step_seconds: int, profile: TrafficProfile
) -> MultiLayerMatrix:
    """Build a multi-layer matrix from coordinates alone; every layer is
    closed under min-plus, so it satisfies the triangle inequality.

    Deterministic: the same (instance, n_layers, step_seconds, profile) always
    yields the same matrix.
    """
    n_layers = _integer(n_layers, "n_layers", 1)
    lats = np.array([n.lat for n in instance.nodes])
    lons = np.array([n.lon for n in instance.nodes])
    dist_km = haversine_km(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
    n = instance.n_nodes
    speed = profile.base_speed_kmh
    with np.errstate(over="ignore"):  # _seconds refuses what overflows
        base = _seconds(dist_km / speed * 3600.0, f"base speed {speed} km/h")
    off_diag = base[~np.eye(n, dtype=bool)]
    if (off_diag == 0).any():
        warnings.warn(
            "instance has coincident nodes; some off-diagonal travel times are zero",
            stacklevel=2,
        )

    rng = np.random.default_rng(profile.seed)
    jitter = rng.uniform(profile.jitter_range[0], profile.jitter_range[1], size=(n, n))

    layers = np.empty((n_layers, n, n), dtype=np.int64)
    for s in range(n_layers):
        mult = profile.layer_multiplier(s)
        with np.errstate(over="ignore", invalid="ignore"):  # inf x 0 on the diagonal
            scaled = _seconds(base * mult * jitter, f"layer {s} multiplier {mult}")
        layers[s] = min_plus_closure(scaled)
    return MultiLayerMatrix(times=layers, step_seconds=step_seconds)
