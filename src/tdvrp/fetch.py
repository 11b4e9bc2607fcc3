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
the wire; RecordedBackend reads its answer as one tile of its store, and
from_file reads its recording on the first query, never on a warm rerun.

Elements are held in a dense store keyed by index: per departure epoch, an
(n, n) int64 value layer and a boolean "known" mask. The cache file keeps its
JSON-lines format (one {"o", "d", "t", "s"} record of four JSON integers per
line). execute_fetch writes a request's fresh elements one origin row at a
time, each row from one template that holds its "o" and "t", and flushes
them before the next query. Lines exactly as it writes them are read as
bytes in one numpy pass, which checks the skeleton, the numbers and their
widths, and where each number stands; any other file is decoded and parsed
one line at a time, which names a bad line. The (o, d, t, s) rows are
scattered into the store, a request (its indices are ranges) is skipped
when its tile, a basic slice, is all known, and the matrix and the list of
holes come from the arrays.

Quota arithmetic counts full N*N rectangles per layer (the provider bills the
whole cross product, self-pairs included); the useful element count skips
self-pairs, whose travel time is zero by definition. Both counts are carried
on the plan.
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
from dataclasses import dataclass
from itertools import chain, compress
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
from .model import (
    Instance, MultiLayerMatrix, _decode, _integer, _integers, _read_bytes, _same_nodes
)

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
    origin_indices: range  # consecutive node indices, as plan_fetch tiles a layer
    destination_indices: range
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

    def __post_init__(self):
        self.daily_quota = _integer(self.daily_quota, "daily_quota", 1)

    def charge(self, elements: int) -> None:
        if self.elements_used + elements > self.daily_quota:
            raise QuotaExhaustedError(
                f"daily quota {self.daily_quota} would be exceeded "
                f"({self.elements_used} used, {elements} requested)"
            )
        self.elements_used += elements


def max_nodes_single_day(n_layers: int, daily_quota: int) -> int:
    """Largest N whose full fetch (n_layers * N^2 billed elements) fits in one day."""
    n_layers = _integer(n_layers, "n_layers", 1)
    return isqrt(_integer(daily_quota, "daily_quota", 1) // n_layers)


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
    Layer 0 departs at start_epoch, by default two weeks from now. Counts are
    integers >= 1 (n_nodes >= 2); the horizon and last departure stay < 2**63 s.
    """
    n_nodes = _integer(n_nodes, "n_nodes", 2)
    n_layers = _integer(n_layers, "n_layers", 1)
    step_seconds = _integer(step_seconds, "step_seconds", 1, 2**63 // n_layers)
    elements_per_request_limit = _integer(
        elements_per_request_limit, "elements_per_request_limit", 1
    )
    daily_quota = _integer(daily_quota, "daily_quota", 1)
    if start_epoch is None:
        start_epoch = int(time.time()) + QUERY_LEAD_SECONDS
    # the last layer departs at start_epoch + (n_layers - 1) * step_seconds < 2**63
    start_epoch = _integer(start_epoch, "start_epoch", 0, 2**63 - (n_layers - 1) * step_seconds)

    limit = min(elements_per_request_limit, daily_quota)
    # whole rows while a row fits under the cap, else one row cut into pieces
    rows, cols = max(1, limit // n_nodes), min(n_nodes, limit)
    all_nodes = range(n_nodes)
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
    read_cache_file returns them, every entry an integer by `_integers`;
    from_matrix needs integer times, and from_file names a recording that the
    first query reads. They are held per recorded epoch in dense layers, and a
    query answers with a copy of one tile of the values and of the mask.
    """

    def __init__(self, instance: Instance, rows):
        self._n_nodes = instance.n_nodes
        self._path = None  # a recording from_file names, until a query reads it
        self._hold(rows)

    @classmethod
    def from_file(cls, instance: Instance, path):
        """The recording at `path`, which read_cache_file reads on the first
        query: a fetch that sends no request never opens it."""
        backend = cls(instance, ())
        backend._path = path
        return backend

    def _hold(self, rows):
        rows = _integers(rows, "rows")
        if rows.size == 0:
            rows = rows.reshape(0, 4)
        elif rows.ndim != 2 or rows.shape[1] != 4:
            raise InputError(f"rows must be (origin, destination, epoch, seconds) rows, "
                             f"an (m, 4) array, got shape {rows.shape}")
        epochs = np.unique(rows[:, 2])
        self._layer_of = {t: k for k, t in enumerate(epochs.tolist())}
        self._values, self._known = _dense_layers(rows, self._n_nodes, epochs)

    @classmethod
    def from_matrix(cls, instance: Instance, matrix: MultiLayerMatrix, start_epoch: int):
        _same_nodes("matrix", matrix.n_nodes, instance.n_nodes)
        step, last = matrix.step_seconds, matrix.n_layers - 1
        start_epoch = _integer(start_epoch, "start_epoch", 0, 2**63 - last * step)
        layer, o, d = np.indices(matrix.times.shape).reshape(3, -1)
        t = start_epoch + step * layer
        seconds = _integers(matrix.times, "times").reshape(-1)  # a float matrix is refused
        return cls(instance, np.column_stack([o, d, t, seconds]))

    def query(self, origins, destinations, departure_time):
        if self._path is not None:
            self._hold(read_cache_file(self._path))
            self._path = None
        layer = self._layer_of.get(int(departure_time))
        if layer is None:
            answered = np.equal.outer(origins, destinations)
            return np.zeros(answered.shape, dtype=np.int64), answered
        if type(origins) is type(destinations) is range and origins.step == destinations.step == 1:
            # as plan_fetch makes them: a basic slice, far cheaper than an index array
            tile = slice(origins.start, origins.stop), slice(destinations.start, destinations.stop)
        else:
            tile = np.array(origins)[:, None], np.array(destinations)
        return self._values[layer][tile].copy(), self._known[layer][tile].copy()


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
        self._places = [f"{node.lat:.6f},{node.lon:.6f}" for node in instance.nodes]

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
    that is not an integer in [0, 2**63) by `_integer` is malformed, never cached."""
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
            try:
                values[i, j] = _integer(seconds, f"response element ({i}, {j}) has duration "
                                                 f"{json.dumps(duration)}, whose value", 0)
            except InputError as exc:
                raise PermanentBackendError(str(exc)) from None
            answered[i, j] = True
    return values, answered


# --- cache -------------------------------------------------------------------
#
# Append-only JSON lines, one element each:
#   {"o": origin_index, "d": destination_index, "t": departure_epoch, "s": seconds}
# An element the backend was asked for and left unanswered is a hole, written
# once with "s": -1 (_HOLE), so no rerun asks for it again.
# Every record ends with a newline, so an unterminated last line is a write
# cut short by a crash: readers skip it and the next fetch cuts it off.
#
# _RECORD is the one definition of a line as the package writes it; _records
# fills it an origin row at a time, from a template that holds the row's "o"
# and "t". A file of such lines only is read in one pass (_parse_written),
# which finds each value where _RECORD puts it by the widths of the values
# before it; any other file, with blank lines, other spacing or key order, or
# a bad line, is parsed one line at a time by json.loads (_parse_lines), the
# only path that names a bad line. A new record kind needs its own one-pass
# form, or every file holding one takes that far slower path.

_RECORD = '{"o": %d, "d": %d, "t": %d, "s": %d}\n'
_ROW = _RECORD.replace("%d", "%s")  # % (o, "%d", t, "%d") gives an origin row's template
_HOLE = -1
_PIECES = _RECORD.encode().split(b"%d")  # the bytes around the four values
_SKELETON = b"".join(_PIECES)
# bytes from the end of one value to the start of the next, a line's end counted before "o"
_GAPS = np.array([len(_PIECES[-1] + _PIECES[0]), *map(len, _PIECES[1:-1])])
_BLANK_SKELETON = bytes.maketrans(bytes(set(_SKELETON)), b" " * len(set(_SKELETON)))
_MINUS_NOT_BEFORE_DIGIT = re.compile(rb"-(?![0-9])")
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)
_INT64 = np.iinfo(np.int64)
_ODTS = operator.itemgetter("o", "d", "t", "s")
# whether a file is all written lines holds line by line, so the one pass reads it in
# chunks: its temporaries, several bytes a byte read, then stay this small
_CHUNK_BYTES = 2**18


def read_cache_file(path) -> np.ndarray:
    """Cache records as an (m, 4) int64 array of (o, d, t, s) rows, in file order.

    Each whole line that is not blank must hold one record of four JSON
    integers. A file whose every line is as execute_fetch writes it is read
    in one pass over its bytes, _CHUNK_BYTES at a time cut after a newline,
    into one array; any other is decoded and parsed one line at a time, which
    names the first bad line. A file that cannot be read, or that is not
    UTF-8 up to its last newline, is an InputError.
    """
    data = _read_bytes(path)
    end = data.rfind(b"\n") + 1
    if end < len(data):
        data = data[:end]  # what follows the last newline is a torn record
    rows = np.empty((data.count(b"\n"), 4), dtype=np.int64)
    at = m = 0
    while at < len(data):
        # a line longer than a chunk is a chunk of its own
        cut = data.rfind(b"\n", at, at + _CHUNK_BYTES) + 1 or data.find(b"\n", at) + 1
        chunk = _parse_written(data[at:cut])
        if chunk is None:
            return _parse_lines(_decode(data, path).split("\n")[:-1], path)
        rows[m:m + len(chunk)] = chunk
        at, m = cut, m + len(chunk)
    return rows


def _parse_written(data: bytes):
    """The rows of `data` as an (m, 4) array if it is m lines of _RECORD,
    each value as %d writes it, else None.

    With digits and "-" deleted the bytes must be the skeleton m times, so
    the rest stands in runs between skeleton bytes. Every "-" must be
    followed by a digit, so with the skeleton blanked numpy reads each run
    as one number or raises ("1-2" raises; a run "-" alone it would join to
    the next, reading "- 12" as -12). It must read exactly 4m numbers, none
    an int64 limit, which is what numpy makes of an overflow. A run is never
    narrower than its number's %d, and the %d widths must add up to the
    digits and signs of the bytes, so each run is its number as %d writes
    it: no leading zero, no "-0".

    From the widths follows where `_RECORD % row` puts each value, and there
    its first byte must be a digit or "-" and its last byte a digit. That
    puts each run at its value's place. Were run j to start before it, the
    value's last byte would lie past run j, in a later run, so run j + 1
    would start before its place too, and so on to the last run, past which
    there is no digit. Were run j to start after it, the value's first byte
    would lie in an earlier run, so run j - 1 would end, and start, after its
    place, and so back to the first run, before which there is none. Lines
    as _RECORD writes them pass every check.
    """
    m = data.count(b"\n")
    if data.translate(None, b"0123456789-") != _SKELETON * m:
        return None
    if _MINUS_NOT_BEFORE_DIGIT.search(data):
        return None
    try:
        # numpy raises on text it cannot read to the end
        values = np.fromstring(data.translate(_BLANK_SKELETON), dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if len(values) != 4 * m or _INT64.min in values or _INT64.max in values:
        return None
    # a value has one digit more than the powers of ten it reaches, and a sign if negative
    width = np.searchsorted(_POWERS_OF_TEN, np.abs(values), side="right")
    width += 1
    width += values < 0
    if width.sum() != len(data) - len(_SKELETON) * m:
        return None
    # where each value's last byte, then its first, stands: one array, reused in place,
    # since each array as long as the values adds 8 bytes a value to the peak memory
    at = (width.reshape(-1, 4) + _GAPS).ravel()
    np.cumsum(at, out=at)
    at -= len(_PIECES[-1]) + 1
    data_bytes = np.frombuffer(data, dtype=np.uint8)
    if data_bytes[at].tobytes().translate(None, b"0123456789"):
        return None
    at -= width - 1
    if data_bytes[at].tobytes().translate(None, b"0123456789-"):
        return None
    return values.reshape(-1, 4)


def _parse_lines(lines, path) -> np.ndarray:
    """The records of `lines` as an (m, 4) array; a blank line holds none.
    The first line that is not one record of four JSON integers in the
    int64 range is an InputError naming it."""
    rows = np.empty((len(lines), 4), dtype=np.int64)
    m = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            o, d, t, s = values = _ODTS(json.loads(line))
            try:  # four plain ints go straight in, and numpy refuses one past int64
                if type(o) is type(d) is type(t) is type(s) is int:
                    rows[m] = values
                    m += 1
                    continue
            except OverflowError:
                pass
            # the one rule refuses any other value: true, "1", 1.5, NaN or 2**63
            for key, value in zip("odts", values):
                _integer(value, f'"{key}"', -(2**63))
        except (KeyError, TypeError, ValueError, InputError) as exc:
            raise InputError(f"bad cache line {lineno} in {path}: {exc}") from exc
    return rows[:m]


def _records(req: FetchRequest, got: np.ndarray, fresh: np.ndarray) -> str:
    """The cache lines of a request's fresh cells, one origin row at a time:
    the row's template holds its "o" and "t", and one % fills it from the
    row's interleaved (d, s) pairs."""
    lines = []
    for o, seconds, keep in zip(req.origin_indices, got.tolist(), fresh.tolist()):
        pairs = (*chain.from_iterable(compress(zip(req.destination_indices, seconds), keep)),)
        lines.append(_ROW % (o, "%d", req.departure_time, "%d") * (len(pairs) // 2) % pairs)
    return "".join(lines)


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
    values are stored as-is, never fixed; a hole is cached as -1 and reported
    at assembly, and MultiLayerMatrix refuses any other negative value.
    Each request's departure_time is its layer's epoch and its indices are
    ranges, as plan_fetch makes them.
    """
    n = plan.n_nodes
    _same_nodes("plan", n, instance.n_nodes)
    epochs = plan.start_epoch + plan.step_seconds * np.arange(plan.n_layers, dtype=np.int64)
    rows = np.empty((0, 4), dtype=np.int64)  # a cache not written yet is empty
    if cache_path is not None and os.path.exists(cache_path):
        rows = read_cache_file(cache_path)
        _cut_torn_record(cache_path)
    values, known = _dense_layers(rows, n, epochs)
    del rows  # freed before a backend reads its recording on the first query
    off_diagonal = ~np.eye(n, dtype=bool)
    cache_fh = open(cache_path, "a", encoding="utf-8") if cache_path else None
    try:
        for index, req in enumerate(plan.requests):
            o, d = req.origin_indices, req.destination_indices
            tile = slice(o.start, o.stop), slice(d.start, d.stop)
            known_view = known[req.layer][tile]
            if known_view.all():
                continue
            try:
                if budget is not None:
                    budget.charge(req.billed_elements)
                got, answered = _query_with_retry(client, req, sleep)
            except QuotaExhaustedError:
                raise PlanSuspendedError(index, len(plan.requests), cache_path)
            # a cell answered, or neither answered nor known, is fresh: a hole
            # is known from now on; self-pairs stay as they are
            fresh = answered & off_diagonal[tile] | ~known_view
            got = np.where(answered, got, _HOLE)
            np.copyto(values[req.layer][tile], got, where=fresh)
            known_view[...] = True
            if cache_fh is not None:
                cache_fh.write(_records(req, got, fresh))
                cache_fh.flush()
    finally:
        if cache_fh is not None:
            cache_fh.close()

    holes = ~known | (values == _HOLE)
    if holes.any():
        raise IncompleteMatrixError(map(tuple, np.argwhere(holes).tolist()))
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
