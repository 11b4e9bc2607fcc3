"""Quota-aware planning and execution of travel-time matrix downloads.

A distance-matrix provider answers rectangular queries (a list of origins
crossed with a list of destinations) and bills per element, with a cap on
elements per request and a daily element quota. plan_fetch tiles each layer
of the matrix into rectangles under the per-request cap; execute_fetch plays
the plan against a backend, caching every element so interrupted or
multi-day fetches resume for free.

Quota arithmetic counts full N*N rectangles per layer (the provider bills the
whole cross product, self-pairs included); the useful element count skips
self-pairs, whose travel time is zero by definition. Both counts are carried
on the plan.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from math import ceil, isqrt

import numpy as np
import requests

from .errors import (
    IncompleteMatrixError,
    InputError,
    PermanentBackendError,
    PlanSuspendedError,
    QuotaExhaustedError,
    TransientBackendError,
)
from .model import Instance, MultiLayerMatrix
from .synth import TrafficProfile, generate_synthetic

DEFAULT_ELEMENTS_PER_REQUEST = 100
FREE_DAILY_QUOTA = 2_500
PAID_DAILY_QUOTA = 100_000
QUERY_LEAD_SECONDS = 14 * 86_400  # providers want departure times in the future
API_KEY_ENV_VAR = "GOOGLE_MAPS_API_KEY"


@dataclass(frozen=True)
class FetchRequest:
    layer: int
    origin_indices: tuple[int, ...]
    destination_indices: tuple[int, ...]
    departure_time: int  # epoch seconds

    @property
    def billed_elements(self) -> int:
        return len(self.origin_indices) * len(self.destination_indices)


@dataclass(frozen=True)
class FetchPlan:
    n_nodes: int
    n_layers: int
    step_seconds: int
    start_epoch: int
    requests: tuple[FetchRequest, ...]
    total_elements: int  # useful elements (self-pairs skipped by default)
    quota_elements: int  # billed elements, layers * n_nodes**2
    elements_per_request_limit: int
    daily_quota: int
    days_needed: int


@dataclass
class QuotaBudget:
    """Running element count against a daily quota."""

    daily_quota: int
    elements_used: int = 0

    def charge(self, elements: int) -> None:
        if self.elements_used + elements > self.daily_quota:
            raise QuotaExhaustedError(
                f"daily quota {self.daily_quota} would be exceeded "
                f"({self.elements_used} used, {elements} requested)"
            )
        self.elements_used += elements


def default_query_epoch(now=None) -> int:
    """Default departure date for layer 0: two weeks from now."""
    base = int(time.time()) if now is None else int(now)
    return base + QUERY_LEAD_SECONDS


def max_nodes_single_day(n_layers: int, daily_quota: int) -> int:
    """Largest N whose full fetch (n_layers * N^2 billed elements) fits in one day."""
    if n_layers < 1 or daily_quota < 1:
        raise InputError("need at least one layer and a positive quota")
    return isqrt(daily_quota // n_layers)


def plan_fetch(
    n_nodes: int,
    n_layers: int,
    *,
    step_seconds: int = 7200,
    start_epoch: int | None = None,
    elements_per_request_limit: int = DEFAULT_ELEMENTS_PER_REQUEST,
    daily_quota: int = PAID_DAILY_QUOTA,
    include_self_pairs: bool = False,
) -> FetchPlan:
    """Tile every layer into rectangular requests under the element cap.

    Chunking is row-major within each layer: consecutive origin rows are
    grouped with the full destination list while the cross product stays
    under the cap; rows wider than the cap are split along destinations.
    The tiles partition each layer exactly (no duplicates, no holes).
    """
    if n_nodes < 2:
        raise InputError(f"need at least 2 nodes, got {n_nodes}")
    if n_layers < 1:
        raise InputError(f"need at least 1 layer, got {n_layers}")
    if elements_per_request_limit < 1:
        raise InputError("per-request element limit must be >= 1")
    if daily_quota < 1:
        raise InputError("daily quota must be >= 1")
    if step_seconds < 1:
        raise InputError("step_seconds must be >= 1")
    if start_epoch is None:
        start_epoch = default_query_epoch()

    limit = min(elements_per_request_limit, daily_quota)
    all_nodes = tuple(range(n_nodes))
    reqs = []
    for layer in range(n_layers):
        departure = int(start_epoch) + layer * step_seconds
        if n_nodes <= limit:
            rows_per_request = limit // n_nodes
            for r0 in range(0, n_nodes, rows_per_request):
                origins = all_nodes[r0 : r0 + rows_per_request]
                reqs.append(FetchRequest(layer, origins, all_nodes, departure))
        else:
            for origin in all_nodes:
                for c0 in range(0, n_nodes, limit):
                    dests = all_nodes[c0 : c0 + limit]
                    reqs.append(FetchRequest(layer, (origin,), dests, departure))

    useful_per_layer = n_nodes * n_nodes if include_self_pairs else n_nodes * (n_nodes - 1)
    quota_elements = n_layers * n_nodes * n_nodes
    return FetchPlan(
        n_nodes=n_nodes,
        n_layers=n_layers,
        step_seconds=step_seconds,
        start_epoch=int(start_epoch),
        requests=tuple(reqs),
        total_elements=n_layers * useful_per_layer,
        quota_elements=quota_elements,
        elements_per_request_limit=elements_per_request_limit,
        daily_quota=daily_quota,
        days_needed=ceil(quota_elements / daily_quota),
    )


# --- backends ----------------------------------------------------------------


def _coord_key(lat: float, lon: float) -> tuple[float, float]:
    return (round(float(lat), 6), round(float(lon), 6))


class RecordedBackend:
    """Replays captured travel times; unknown pairs come back as holes (None)."""

    def __init__(self, instance: Instance, records: dict):
        # records: {(origin_index, destination_index, departure_epoch): seconds}
        coords = instance.coordinates()
        self._values = {}
        for (o, d, t), seconds in records.items():
            key = (_coord_key(*coords[o]), _coord_key(*coords[d]), int(t))
            self._values[key] = int(seconds)

    @classmethod
    def from_matrix(cls, instance: Instance, matrix: MultiLayerMatrix, start_epoch: int):
        records = {}
        for s in range(matrix.n_layers):
            departure = int(start_epoch) + s * matrix.step_seconds
            for o in range(matrix.n_nodes):
                for d in range(matrix.n_nodes):
                    if o != d:
                        records[(o, d, departure)] = int(matrix.times[s, o, d])
        return cls(instance, records)

    @classmethod
    def from_jsonl(cls, instance: Instance, path):
        return cls(instance, read_cache_file(path))

    def query(self, origins, destinations, departure_time):
        t = int(departure_time)
        grid = []
        for o in origins:
            ok = _coord_key(*o)
            row = []
            for d in destinations:
                dk = _coord_key(*d)
                row.append(0 if ok == dk else self._values.get((ok, dk, t)))
            grid.append(row)
        return grid


class SyntheticBackend:
    """Serves elements of a generated traffic matrix as if it were remote."""

    def __init__(
        self,
        instance: Instance,
        n_layers: int,
        step_seconds: int,
        profile: TrafficProfile,
        start_epoch: int,
    ):
        self.matrix = generate_synthetic(instance, n_layers, step_seconds, profile)
        self._replay = RecordedBackend.from_matrix(instance, self.matrix, start_epoch)

    def query(self, origins, destinations, departure_time):
        return self._replay.query(origins, destinations, departure_time)


class LiveBackend:
    """HTTP client for a Google-style Distance Matrix endpoint.

    The API key comes from the GOOGLE_MAPS_API_KEY environment variable (or
    the api_key argument) and is sent only as a query parameter, never stored
    in any output file.
    """

    URL = "https://maps.googleapis.com/maps/api/distancematrix/json"

    def __init__(self, api_key: str | None = None, session=None, timeout: float = 30.0):
        self._key = api_key or os.environ.get(API_KEY_ENV_VAR)
        if not self._key:
            raise InputError(
                f"no API key: set {API_KEY_ENV_VAR} or pass api_key explicitly"
            )
        self._session = session if session is not None else requests.Session()
        self._timeout = timeout

    def query(self, origins, destinations, departure_time):
        params = {
            "origins": "|".join(f"{lat:.6f},{lon:.6f}" for lat, lon in origins),
            "destinations": "|".join(f"{lat:.6f},{lon:.6f}" for lat, lon in destinations),
            "departure_time": str(int(departure_time)),
            "mode": "driving",
            "traffic_model": "best_guess",
            "key": self._key,
        }
        try:
            resp = self._session.get(self.URL, params=params, timeout=self._timeout)
        except requests.RequestException as exc:
            raise TransientBackendError(f"request failed: {exc}") from exc
        if resp.status_code >= 500:
            raise TransientBackendError(f"server error HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise PermanentBackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        doc = resp.json()
        status = doc.get("status")
        if status in ("OVER_QUERY_LIMIT", "OVER_DAILY_LIMIT"):
            raise QuotaExhaustedError(f"provider signalled {status}")
        if status != "OK":
            raise PermanentBackendError(f"provider status {status}")
        grid = []
        for row in doc.get("rows", []):
            out = []
            for element in row.get("elements", []):
                if element.get("status") != "OK":
                    out.append(None)
                    continue
                duration = element.get("duration_in_traffic") or element.get("duration")
                out.append(int(duration["value"]) if duration else None)
            grid.append(out)
        return grid


# --- cache -------------------------------------------------------------------
#
# Append-only JSON lines, one element each:
#   {"o": origin_index, "d": destination_index, "t": departure_epoch, "s": seconds}
# Every record ends with a newline, so an unterminated last line is a write
# cut short by a crash: readers skip it and the next fetch cuts it off.


def read_cache_file(path) -> dict:
    records = {}
    if path is None or not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                break  # torn last record
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                records[(int(rec["o"]), int(rec["d"]), int(rec["t"]))] = int(rec["s"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad cache line {lineno} in {path}: {exc}") from exc
    return records


def _cut_torn_record(path) -> None:
    """Truncate the cache after its last newline, so appends start a line."""
    with open(path, "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def _append_cache(fh, o: int, d: int, t: int, s: int) -> None:
    fh.write(json.dumps({"o": o, "d": d, "t": t, "s": s}))
    fh.write("\n")


# --- execution ---------------------------------------------------------------


def execute_fetch(
    plan: FetchPlan,
    client,
    instance: Instance,
    *,
    cache_path=None,
    budget: QuotaBudget | None = None,
    max_attempts: int = 5,
    retry_base_delay: float = 0.5,
    sleep=time.sleep,
) -> MultiLayerMatrix:
    """Run the plan against a backend and assemble the matrix.

    Requests whose elements are already cached are skipped entirely, so a
    rerun over a warm cache issues zero backend calls. Transient failures are
    retried with exponential backoff (at most max_attempts tries); a quota
    signal suspends the plan with progress preserved in the cache. Fetched
    values are stored as-is: real data is validated downstream, never fixed.
    """
    n = plan.n_nodes
    if instance.n_nodes != n:
        raise InputError(f"plan covers {n} nodes but instance has {instance.n_nodes}")
    coords = instance.coordinates()
    cache = read_cache_file(cache_path)
    if cache_path is not None and os.path.exists(cache_path):
        _cut_torn_record(cache_path)
    cache_fh = open(cache_path, "a", encoding="utf-8") if cache_path else None
    completed = 0
    try:
        for req in plan.requests:
            missing = [
                (o, d)
                for o in req.origin_indices
                for d in req.destination_indices
                if o != d and (o, d, req.departure_time) not in cache
            ]
            if not missing:
                completed += 1
                continue
            if budget is not None:
                try:
                    budget.charge(req.billed_elements)
                except QuotaExhaustedError:
                    raise PlanSuspendedError(completed, len(plan.requests), cache_path)
            grid = _query_with_retry(
                client, req, coords, max_attempts, retry_base_delay, sleep, cache_path, completed, plan
            )
            for a, o in enumerate(req.origin_indices):
                for b, d in enumerate(req.destination_indices):
                    if o == d:
                        continue
                    value = grid[a][b]
                    if value is None:
                        continue  # hole; reported at assembly
                    cache[(o, d, req.departure_time)] = int(value)
                    if cache_fh is not None:
                        _append_cache(cache_fh, o, d, req.departure_time, int(value))
            if cache_fh is not None:
                cache_fh.flush()
            completed += 1
    finally:
        if cache_fh is not None:
            cache_fh.close()

    times = np.zeros((plan.n_layers, n, n), dtype=np.int64)
    holes = []
    for layer in range(plan.n_layers):
        departure = plan.start_epoch + layer * plan.step_seconds
        for o in range(n):
            for d in range(n):
                if o == d:
                    continue
                value = cache.get((o, d, departure))
                if value is None:
                    holes.append((layer, o, d))
                else:
                    times[layer, o, d] = value
    if holes:
        raise IncompleteMatrixError(holes)
    return MultiLayerMatrix(times=times, step_seconds=plan.step_seconds)


def _query_with_retry(client, req, coords, max_attempts, base_delay, sleep, cache_path, completed, plan):
    origins = [coords[o] for o in req.origin_indices]
    destinations = [coords[d] for d in req.destination_indices]
    last_error = None
    for attempt in range(max_attempts):
        if attempt > 0 and base_delay > 0:
            sleep(base_delay * 2 ** (attempt - 1))
        try:
            grid = client.query(origins, destinations, req.departure_time)
        except TransientBackendError as exc:
            last_error = exc
            continue
        except QuotaExhaustedError:
            raise PlanSuspendedError(completed, len(plan.requests), cache_path)
        except PermanentBackendError as exc:
            raise PermanentBackendError(f"{_describe(req)} failed: {exc}") from exc
        if len(grid) != len(origins) or any(len(row) != len(destinations) for row in grid):
            raise PermanentBackendError(f"{_describe(req)} returned a malformed grid")
        return grid
    raise PermanentBackendError(
        f"{_describe(req)} failed after {max_attempts} attempts: {last_error}"
    )


def _describe(req: FetchRequest) -> str:
    o = req.origin_indices
    d = req.destination_indices
    return (
        f"request layer={req.layer} origins={o[0]}..{o[-1]} "
        f"destinations={d[0]}..{d[-1]} departure={req.departure_time}"
    )
