"""Quota-aware planning and execution of travel-time matrix downloads.

A distance-matrix provider answers rectangular queries (a list of origins
crossed with a list of destinations) and bills per element, with a cap on
elements per request and a daily element quota. plan_fetch tiles each layer
of the matrix into rectangles under the per-request cap; execute_fetch plays
the plan against a backend, caching every element so interrupted or
multi-day fetches resume for free. A transient backend failure is retried
up to MAX_ATTEMPTS times, sleeping RETRY_BASE_DELAY seconds, then twice as
long before each further try; a quota signal, the provider's or the local
budget's, suspends the plan at the request it refused.

Provider data is keyed by node index from plan to store. A backend's
query(origins, destinations, departure_time) takes two sequences of node
indices and answers with (values, answered): an int64 array and a bool array,
both of shape (len(origins), len(destinations)); a cell that is not answered
is a hole. LiveBackend turns the indices into the instance's coordinates on
the wire; RecordedBackend reads its answer as one tile of its store.

Elements are held in a dense store keyed by index: per departure epoch, an
(n, n) int64 value layer and a boolean "known" mask. The cache file keeps its
JSON-lines format (one {"o", "d", "t", "s"} record of four JSON integers per
line). Lines exactly as execute_fetch writes them are read in one numpy
pass; any other file goes through a JSON parser a few thousand lines at a
time, which names a bad line. The (o, d, t, s) rows are scattered into the
store, a request is skipped when its tile is all known, and the matrix and
the list of holes come straight from the arrays.

Quota arithmetic counts full N*N rectangles per layer (the provider bills the
whole cross product, self-pairs included); the useful element count skips
self-pairs, whose travel time is zero by definition. Both counts are carried
on the plan.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
import time
import warnings
from dataclasses import dataclass
from math import ceil, isqrt

import numpy as np

from .errors import (
    IncompleteMatrixError,
    InputError,
    PermanentBackendError,
    PlanSuspendedError,
    QuotaExhaustedError,
    TransientBackendError,
)
from .model import Instance, MultiLayerMatrix, _integer, _read_text

DEFAULT_ELEMENTS_PER_REQUEST = 100
FREE_DAILY_QUOTA = 2_500
PAID_DAILY_QUOTA = 100_000
QUERY_LEAD_SECONDS = 14 * 86_400  # providers want departure times in the future
API_KEY_ENV_VAR = "GOOGLE_MAPS_API_KEY"
REQUEST_TIMEOUT_SECONDS = 30.0
MAX_ATTEMPTS = 5
RETRY_BASE_DELAY = 0.5  # seconds


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
    total_elements: int  # useful elements (self-pairs skipped)
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
) -> FetchPlan:
    """Tile every layer into rectangular requests under the element cap.

    Chunking is row-major within each layer: consecutive origin rows are
    grouped with the full destination list while the cross product stays
    under the cap; rows wider than the cap are split along destinations.
    The tiles partition each layer exactly (no duplicates, no holes).
    Layer 0 departs at start_epoch, by default two weeks from now.
    """
    n_nodes = _integer(n_nodes, "n_nodes")
    n_layers = _integer(n_layers, "n_layers")
    step_seconds = _integer(step_seconds, "step_seconds")
    elements_per_request_limit = _integer(elements_per_request_limit, "elements_per_request_limit")
    daily_quota = _integer(daily_quota, "daily_quota")
    if start_epoch is None:
        start_epoch = int(time.time()) + QUERY_LEAD_SECONDS
    start_epoch = _integer(start_epoch, "start_epoch")
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

    limit = min(elements_per_request_limit, daily_quota)
    # whole rows while a row fits under the cap, else one row cut into pieces
    rows, cols = max(1, limit // n_nodes), min(n_nodes, limit)
    all_nodes = tuple(range(n_nodes))
    reqs = []
    for layer in range(n_layers):
        departure = start_epoch + layer * step_seconds
        for r0 in range(0, n_nodes, rows):
            for c0 in range(0, n_nodes, cols):
                tile = all_nodes[r0 : r0 + rows], all_nodes[c0 : c0 + cols]
                reqs.append(FetchRequest(layer, *tile, departure))

    quota_elements = n_layers * n_nodes * n_nodes
    return FetchPlan(
        n_nodes=n_nodes,
        n_layers=n_layers,
        step_seconds=step_seconds,
        start_epoch=start_epoch,
        requests=tuple(reqs),
        total_elements=n_layers * n_nodes * (n_nodes - 1),
        quota_elements=quota_elements,
        elements_per_request_limit=elements_per_request_limit,
        daily_quota=daily_quota,
        days_needed=ceil(quota_elements / daily_quota),
    )


# --- dense element store -----------------------------------------------------


def _dense_layers(rows: np.ndarray, n: int, epochs: np.ndarray):
    """Scatter (o, d, t, s) rows into (len(epochs), n, n) value/known layers,
    indexed [layer, origin, destination]; epochs must be sorted.

    Self-pairs are known and 0. Rows with an epoch not in epochs, an index
    outside 0..n-1 or a self-pair are dropped; of repeated elements the later
    row wins."""
    values = np.zeros((len(epochs), n, n), dtype=np.int64)
    known = np.zeros(values.shape, dtype=bool)
    known[:, np.arange(n), np.arange(n)] = True
    if len(rows) and len(epochs):
        o, d, t, s = rows.T
        layer = np.minimum(np.searchsorted(epochs, t), len(epochs) - 1)
        keep = (epochs[layer] == t) & (o >= 0) & (o < n) & (d >= 0) & (d < n) & (o != d)
        flat = (layer[keep] * n + o[keep]) * n + d[keep]
        # np.unique keeps the first of equal keys, so feed it the rows last-first
        flat, first = np.unique(flat[::-1], return_index=True)
        values.flat[flat] = s[keep][::-1][first]
        known.flat[flat] = True
    return values, known


# --- backends ----------------------------------------------------------------


class RecordedBackend:
    """Replays captured travel times; a pair that was not recorded is a hole.

    rows are (origin_index, destination_index, departure_epoch, seconds), as
    read_cache_file returns them. They are held per recorded epoch in dense
    layers, and a query answers with one tile of the values and of the mask.
    """

    def __init__(self, instance: Instance, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        epochs = np.unique(rows[:, 2])
        self._layer_of = {t: k for k, t in enumerate(epochs.tolist())}
        self._values, self._known = _dense_layers(rows, instance.n_nodes, epochs)

    @classmethod
    def from_matrix(cls, instance: Instance, matrix: MultiLayerMatrix, start_epoch: int):
        if instance.n_nodes != matrix.n_nodes:
            raise InputError(
                f"matrix covers {matrix.n_nodes} nodes but instance has {instance.n_nodes}"
            )
        layer, o, d = np.indices(matrix.times.shape).reshape(3, -1)
        t = int(start_epoch) + matrix.step_seconds * layer
        return cls(instance, np.column_stack([o, d, t, matrix.times.reshape(-1)]))

    def query(self, origins, destinations, departure_time):
        tile = np.array(origins)[:, None], np.array(destinations)
        layer = self._layer_of.get(int(departure_time))
        if layer is None:
            answered = tile[0] == tile[1]
            return np.zeros(answered.shape, dtype=np.int64), answered
        return self._values[layer][tile], self._known[layer][tile]


class LiveBackend:
    """HTTP client for a Google-style Distance Matrix endpoint.

    A query's node indices are sent as the instance's coordinates. The API
    key comes from the GOOGLE_MAPS_API_KEY environment variable (or the
    api_key argument) and is sent only as a query parameter, never stored in
    any output file. A response that is not the JSON the provider documents
    is a PermanentBackendError.
    """

    URL = "https://maps.googleapis.com/maps/api/distancematrix/json"

    def __init__(self, instance: Instance, api_key: str | None = None, session=None):
        self._key = api_key or os.environ.get(API_KEY_ENV_VAR)
        if not self._key:
            raise InputError(
                f"no API key: set {API_KEY_ENV_VAR} or pass api_key explicitly"
            )
        if session is None:
            import requests  # imported here: it is slow to load and only this backend uses it

            session = requests.Session()
        self._session = session
        self._places = [f"{lat:.6f},{lon:.6f}" for lat, lon in instance.coordinates()]

    def query(self, origins, destinations, departure_time):
        params = {
            "origins": "|".join(self._places[o] for o in origins),
            "destinations": "|".join(self._places[d] for d in destinations),
            "departure_time": str(int(departure_time)),
            "mode": "driving",
            "traffic_model": "best_guess",
            "key": self._key,
        }
        import requests

        try:
            resp = self._session.get(self.URL, params=params, timeout=REQUEST_TIMEOUT_SECONDS)
        except requests.RequestException as exc:
            raise TransientBackendError(f"request failed: {exc}") from exc
        if resp.status_code >= 500:
            raise TransientBackendError(f"server error HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise PermanentBackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            doc = resp.json()
        except ValueError as exc:
            raise PermanentBackendError(f"response is not JSON: {exc}") from exc
        status = doc.get("status") if isinstance(doc, dict) else None
        if status in ("OVER_QUERY_LIMIT", "OVER_DAILY_LIMIT"):
            raise QuotaExhaustedError(f"provider signalled {status}")
        if status != "OK":
            raise PermanentBackendError(f"provider status {status}")
        return _provider_grid(doc.get("rows"), len(origins), len(destinations))


def _provider_grid(rows, n_rows: int, n_cols: int):
    """A provider's rows as (values, answered) arrays; an element whose
    status is not OK, or that carries no duration, is a hole. A duration
    that is negative or not a 64-bit integer is malformed, never cached."""
    if type(rows) is not list or len(rows) != n_rows:
        raise PermanentBackendError(f"response does not hold {n_rows} rows")
    values = np.zeros((n_rows, n_cols), dtype=np.int64)
    answered = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(rows):
        elements = row.get("elements") if isinstance(row, dict) else None
        if type(elements) is not list or len(elements) != n_cols:
            raise PermanentBackendError(f"response row {i} does not hold {n_cols} elements")
        for j, element in enumerate(elements):
            if not isinstance(element, dict):
                raise PermanentBackendError(f"response element ({i}, {j}) is not an object")
            if element.get("status") != "OK":
                continue
            duration = element.get("duration_in_traffic") or element.get("duration")
            if not duration:
                continue
            seconds = duration.get("value") if isinstance(duration, dict) else None
            if type(seconds) is not int or not 0 <= seconds < 2**63:
                raise PermanentBackendError(
                    f"response element ({i}, {j}) has duration {json.dumps(duration)}, "
                    "whose value is not a 64-bit JSON integer >= 0"
                )
            values[i, j] = seconds
            answered[i, j] = True
    return values, answered


# --- cache -------------------------------------------------------------------
#
# Append-only JSON lines, one element each:
#   {"o": origin_index, "d": destination_index, "t": departure_epoch, "s": seconds}
# Every record ends with a newline, so an unterminated last line is a write
# cut short by a crash: readers skip it and the next fetch cuts it off.
#
# _RECORD is the one definition of a line as the package writes it. A file
# of such lines only is read in one pass (_parse_written); any other file,
# with blank lines, other spacing or key order, or a bad line, goes through
# the JSON parser (_parse_lines), the only path that names a bad line. A new
# record kind needs its own one-pass form, or every file holding one takes
# the JSON path.

_RECORD = '{"o": %d, "d": %d, "t": %d, "s": %d}\n'
_SKELETON = _RECORD.replace("%d", "")
_DROP_NUMBERS = str.maketrans("", "", "0123456789-")
_BLANK_SKELETON = str.maketrans(dict.fromkeys(_SKELETON, " "))
_MINUS_NOT_BEFORE_DIGIT = re.compile("-(?![0-9])")
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)
_INT64 = np.iinfo(np.int64)
_RECORD_FIELDS = {key: operator.itemgetter(key) for key in "odts"}
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError)
_CHUNK_LINES = 4096  # lines parsed together, so the parsed dicts stay few


def _not_an_int(token):
    raise ValueError(f"{token} is not an integer")


def read_cache_file(path) -> np.ndarray:
    """Cache records as an (m, 4) int64 array of (o, d, t, s) rows, in file order.

    Each whole line that is not blank must hold one record of four JSON
    integers. A file whose every line is as execute_fetch writes it is read
    in one pass. Any other file is parsed _CHUNK_LINES lines at a time, each
    chunk by one json.loads of its joined lines; when that fails, the same
    parse is run line by line over the chunk to name the first bad line. A
    file that cannot be read is an InputError.
    """
    text = _read_text(path)
    text = text[: text.rfind("\n") + 1]  # what follows the last newline is a torn record
    rows = _parse_written(text)
    if rows is not None:
        return rows
    lines = text.split("\n")[:-1]
    columns = [np.empty((4, 0), dtype=np.int64)]
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start : start + _CHUNK_LINES]
        try:
            columns.append(_parse_lines(chunk))
        except _BAD_RECORD:
            for lineno, line in enumerate(chunk, start=start + 1):
                try:
                    _parse_lines([line])
                except _BAD_RECORD as exc:
                    raise InputError(f"bad cache line {lineno} in {path}: {exc}") from exc
            raise  # not reached: lines that each parse alone also parse joined
    # filled a field at a time, so the rows are a view of (4, m) columns
    return np.concatenate(columns, axis=1).T


def _parse_written(text):
    """The rows of `text` as an (m, 4) array if it is m lines of _RECORD,
    each value as %d writes it, else None.

    With digits and "-" deleted the text must be the skeleton m times. No
    value may be empty and every "-" must be followed by a digit, so each
    value is one number of the form -?[0-9]+ and the numbers sit nowhere
    else; with the skeleton blanked, numpy must then read exactly 4m of
    them. Their %d widths must add up to the digits and signs of the text,
    which rules out leading zeros and "-0", and none may be an int64 limit,
    which is what numpy makes of an overflow.
    """
    m = text.count("\n")
    if text.translate(_DROP_NUMBERS) != _SKELETON * m:
        return None
    # an empty value leaves the space of ": " right before "," or "}"
    if " ," in text or " }" in text or _MINUS_NOT_BEFORE_DIGIT.search(text):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns where 2.x raises on text it cannot read to the end
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text.translate(_BLANK_SKELETON), dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if len(values) != 4 * m or _INT64.min in values or _INT64.max in values:
        return None
    # a value has one digit more than the powers of ten it reaches, and a sign if negative
    width = np.searchsorted(_POWERS_OF_TEN, np.abs(values), side="right").sum()
    width += len(values) + np.count_nonzero(values < 0)
    if width != len(text) - len(_SKELETON) * m:
        return None
    return values.reshape(-1, 4)


def _parse_lines(lines) -> np.ndarray:
    """The records of `lines` as a (4, m) array: one row per field."""
    whole = list(filter(str.strip, lines))
    records = json.loads(
        "[" + ",".join(whole) + "]", parse_float=_not_an_int, parse_constant=_not_an_int
    )
    if len(records) != len(whole):
        raise ValueError("a line holds other than one record")
    for key, field in _RECORD_FIELDS.items():
        # true, "1" or null: json.loads has no hook to refuse these
        if set(map(type, map(field, records))) - {int}:
            raise ValueError(f'"{key}" is not a JSON integer')
    flat = itertools.chain.from_iterable(map(field, records) for field in _RECORD_FIELDS.values())
    return np.fromiter(flat, dtype=np.int64, count=4 * len(records)).reshape(4, -1)


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


# --- execution ---------------------------------------------------------------


def execute_fetch(
    plan: FetchPlan,
    client,
    instance: Instance,
    *,
    cache_path=None,
    budget: QuotaBudget | None = None,
    sleep=time.sleep,
) -> MultiLayerMatrix:
    """Run the plan against a backend and assemble the matrix.

    Requests whose elements are already cached are skipped entirely, so a
    rerun over a warm cache issues zero backend calls. Transient failures are
    retried with exponential backoff (see the module docstring); a quota
    signal suspends the plan with progress preserved in the cache. Fetched
    values are stored as-is, never fixed; MultiLayerMatrix refuses a negative one.
    Each request's departure_time is its layer's epoch, as plan_fetch makes it.
    """
    n = plan.n_nodes
    if instance.n_nodes != n:
        raise InputError(f"plan covers {n} nodes but instance has {instance.n_nodes}")
    epochs = plan.start_epoch + plan.step_seconds * np.arange(plan.n_layers, dtype=np.int64)
    rows = np.empty((0, 4), dtype=np.int64)  # a cache not written yet is empty
    if cache_path is not None and os.path.exists(cache_path):
        rows = read_cache_file(cache_path)
        _cut_torn_record(cache_path)
    values, known = _dense_layers(rows, n, epochs)
    cache_fh = open(cache_path, "a", encoding="utf-8") if cache_path else None
    try:
        for index, req in enumerate(plan.requests):
            rows = np.array(req.origin_indices)[:, None]
            cols = np.array(req.destination_indices)
            tile = rows, cols
            if known[req.layer][tile].all():
                continue
            try:
                if budget is not None:
                    budget.charge(req.billed_elements)
                got, answered = _query_with_retry(client, req, sleep)
            except QuotaExhaustedError:
                raise PlanSuspendedError(index, len(plan.requests), cache_path)
            answered = answered & (rows != cols)  # holes are reported at assembly
            layer_values = values[req.layer]
            layer_values[tile] = np.where(answered, got, layer_values[tile])
            known[req.layer][tile] |= answered
            if cache_fh is not None:
                a, b = np.nonzero(answered)
                t = np.full(len(a), req.departure_time)
                cells = np.column_stack([rows[a, 0], cols[b], t, got[a, b]])
                cache_fh.write(_RECORD * len(a) % tuple(cells.ravel().tolist()))
                cache_fh.flush()
    finally:
        if cache_fh is not None:
            cache_fh.close()

    if not known.all():
        raise IncompleteMatrixError(map(tuple, np.argwhere(~known).tolist()))
    return MultiLayerMatrix(times=values, step_seconds=plan.step_seconds)


def _query_with_retry(client, req, sleep):
    shape = (len(req.origin_indices), len(req.destination_indices))
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt > 0:
            sleep(RETRY_BASE_DELAY * 2 ** (attempt - 1))
        try:
            values, answered = client.query(
                req.origin_indices, req.destination_indices, req.departure_time
            )
        except TransientBackendError as exc:
            last_error = exc
            continue
        except PermanentBackendError as exc:
            raise PermanentBackendError(f"{_describe(req)} failed: {exc}") from exc
        if np.shape(values) != shape or np.shape(answered) != shape:
            raise PermanentBackendError(f"{_describe(req)} returned a malformed grid")
        return values, answered
    raise PermanentBackendError(
        f"{_describe(req)} failed after {MAX_ATTEMPTS} attempts: {last_error}"
    )


def _describe(req: FetchRequest) -> str:
    o = req.origin_indices
    d = req.destination_indices
    return (
        f"request layer={req.layer} origins={o[0]}..{o[-1]} "
        f"destinations={d[0]}..{d[-1]} departure={req.departure_time}"
    )
