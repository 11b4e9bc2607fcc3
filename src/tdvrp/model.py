"""Core domain types and time-dependent route evaluation.

Travel times live in a stack of layers, one per time step of the planning
horizon. Looking up an arc cost picks the layer of the departure time, so a
tour's cost depends on *when* each arc is entered, not just which arcs are
used. Times are kept in integer seconds so that evaluation is exact; the one
exception is the layer-averaged matrix used as the classical baseline, whose
entries are exact means and may be fractional.

All types here are immutable after construction; arrays are marked read-only,
so any number of evaluations may share a matrix concurrently.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, RouteError


@dataclass(frozen=True)
class Node:
    id: int
    lat: float
    lon: float
    label: str = ""


@dataclass(frozen=True)
class Instance:
    """A depot (node 0) plus client locations, checked here whether loaded or
    built in code: ids 0..N-1 each once, in any order, by `_integer`; finite
    coordinates in [-90, 90] and [-180, 180] by `_real`; str labels. Errors
    name the node's position and field. Nodes are kept ordered by id, as
    Python int, float and str."""

    nodes: tuple[Node, ...]

    def __post_init__(self):
        given, nodes = tuple(self.nodes), {}
        if len(given) < 2:
            raise InputError("an instance needs a depot plus at least one client")
        for pos, node in enumerate(given):
            at = f"nodes[{pos}]"
            node_id = _integer(node.id, f"{at}.id", 0, len(given))
            if node_id in nodes:
                raise InputError(f"{at}.id = {node_id} repeats an earlier node's id")
            lat = float(_real(node.lat, f"{at}.lat", -90, high=90))
            lon = float(_real(node.lon, f"{at}.lon", -180, high=180))
            if not isinstance(node.label, str):
                raise InputError(f"{at}.label must be a string, got {node.label!r}")
            nodes[node_id] = Node(node_id, lat, lon, str(node.label))
        object.__setattr__(self, "nodes", tuple(nodes[i] for i in range(len(given))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _integer(value, name: str, low: int, high: int = 2**63) -> int:
    """The one rule for integer arguments: `value` as an int if it is an integer
    (a bool is not) in [low, high), by default in int64; else an InputError
    naming `name` and the bounds."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or not low <= int(value) < high:
        bounds = f"[{_shown(low)}, {_shown(high)})"
        raise InputError(f"{name} must be an integer in {bounds}, got {value!r}")
    return int(value)


def _shown(bound: int):
    """An integer bound as a message shows it: a power of two past 2**32 reads 2**e."""
    e = abs(bound).bit_length() - 1
    return f"{'-' if bound < 0 else ''}2**{e}" if abs(bound) == 2**e > 2**32 else bound


def _integers(values, name: str) -> np.ndarray:
    """The one rule for integer arrays: `values` as an int64 array, each entry
    checked by `_integer` (named name[i][j]...) unless it is a signed numpy
    integer array, or an object array of Python ints in int64 as a JSON
    document gives; numpy would read True as 1 and "5" as 5, and cast 1.7 to 1."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype == object:
        flat = arr.ravel().tolist()
        if set(map(type, flat)) <= {int}:
            try:
                return np.array(flat, dtype=np.int64).reshape(arr.shape)
            except OverflowError:  # past int64: the loop below names the entry
                pass
    if arr.dtype.kind != "i":
        for at, value in enumerate(arr.flat):
            index = "".join(f"[{i}]" for i in np.unravel_index(at, arr.shape))
            _integer(value, name + index, -(2**63))
    return arr.astype(np.int64, copy=False)


def _same_nodes(what: str, n_nodes: int, instance_nodes: int) -> None:
    """The one node-count rule: `what` must cover as many nodes as the instance."""
    if n_nodes != instance_nodes:
        raise InputError(f"{what} covers {n_nodes} nodes but the instance has {instance_nodes}")


def _real(value, name: str, low, strict: bool = False, high=math.inf):
    """The one rule for real-number arguments: `value` if it is a real number
    (a bool is not), finite and >= low (> low if `strict`, with no `high`)
    and <= high; else an InputError naming `name` and the bounds."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # written so that NaN fails it
    if not real or not (low < value if strict else low <= value) or not value <= high \
            or value == math.inf:
        bound = f"in [{low}, {high}]" if high < math.inf else f"{'>' if strict else '>='} {low}"
        raise InputError(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def _as_times_array(times) -> np.ndarray:
    arr = np.asarray(times)
    if not isinstance(times, np.ndarray) and arr.dtype.kind in "iuf":
        # numpy casts a bool that sits among numbers; a bool array is refused below
        cells = np.array(times, dtype=object)
        for at, value in enumerate(cells.flat):
            if isinstance(value, (bool, np.bool_)):
                index = "".join(f"[{i}]" for i in np.unravel_index(at, cells.shape))
                raise InputError(f"times{index} must be integer or float seconds, got {value!r}")
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise InputError(f"times must have shape (layers, n, n), got {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise InputError(f"need at least 1 layer and 2 nodes, got shape {arr.shape}")
    if arr.dtype.kind not in "iuf":  # numpy would cast str, bool and object entries
        raise InputError(f"times must be integer or float seconds, got dtype {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.float64 if arr.dtype.kind == "f" else np.int64)
    # NaN fails the test too, and a uint64 past 2**63 - 1 has wrapped negative
    bad = np.flatnonzero(~((arr >= 0) & (arr < np.inf)))
    if bad.size:
        s, i, j = np.unravel_index(bad[0], arr.shape)
        rule = "be finite" if arr[s, i, j] == np.inf else "be >= 0"
        raise InputError(f"travel times must {rule}; times[{s}][{i}][{j}] = {arr[s, i, j]}")
    loops = np.flatnonzero(np.diagonal(arr, axis1=1, axis2=2))
    if loops.size:
        s, i = np.unravel_index(loops[0], arr.shape[:2])
        v = arr[s, i, i]
        raise InputError(f"a node's travel time to itself must be 0; times[{s}][{i}][{i}] = {v}")
    # every tour drives n arcs: past 2**63 s its int64 clock would wrap
    n, top = arr.shape[1], int(arr.max())
    if arr.dtype.kind == "i" and n * top >= 2**63:
        raise InputError(f"travel times too large: {n} arcs of {top} s pass 2**63 s")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultiLayerMatrix:
    """Stack of NxN travel-time layers covering the planning horizon.

    Layer s holds travel times (seconds) for departures in
    [s*step_seconds, (s+1)*step_seconds); departures at or past the horizon
    fall back to the last layer. Layers may be asymmetric (one-way roads)
    and need not satisfy the triangle inequality; validate_matrix reports
    where they do not.

    Every matrix is checked here, whatever builds it: integer or float
    times, each >= 0 and finite (not NaN, not infinite), a zero diagonal (a
    node is 0 s from itself), integer times whose n-arc tours stay below
    2**63 s, and an integer step_seconds >= 1 whose horizon
    n_layers * step_seconds stays below 2**63 s.
    """

    times: np.ndarray
    step_seconds: int

    def __post_init__(self):
        object.__setattr__(self, "times", _as_times_array(self.times))
        step = _integer(self.step_seconds, "step_seconds", 1, 2**63 // self.n_layers)
        object.__setattr__(self, "step_seconds", step)

    @property
    def n_layers(self) -> int:
        return self.times.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.times.shape[1]

    @property
    def horizon_seconds(self) -> int:
        return self.n_layers * self.step_seconds


@dataclass(frozen=True)
class Route:
    """Visit order of clients; the tour is depot -> order[0] -> ... -> depot.

    `order` holds client ids as ints, each an integer >= 1 (so never the
    depot) and none twice, as `_order` checks. A complete route is a
    permutation of all clients; partial routes occur during construction.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _order(self.order))

    def __len__(self) -> int:
        return len(self.order)

    def is_complete(self, n_nodes: int) -> bool:
        return set(self.order) == set(range(1, n_nodes))


def _order(route, n_nodes: int = 2**63, complete: bool = False) -> tuple[int, ...]:
    """The one rule for routes: `route` (a Route or any sequence) as a tuple
    of client ids, each an integer in [1, n_nodes) by `_integer`, none twice
    and, if `complete`, all n_nodes - 1 of them; else a RouteError."""
    nodes = route.order if isinstance(route, Route) else route
    try:
        nodes = tuple(_integer(v, "route node", 1, n_nodes) for v in nodes)
    except InputError as exc:
        raise RouteError(str(exc)) from None
    if len(set(nodes)) < len(nodes):
        twice = next(v for i, v in enumerate(nodes) if v in nodes[:i])
        raise RouteError(f"route {list(nodes)} visits node {twice} twice")
    if complete and len(nodes) < n_nodes - 1:
        clients = f"clients 1..{n_nodes - 1}"
        raise RouteError(f"route {list(nodes)} is not a complete route over {clients}")
    return nodes


@dataclass(frozen=True)
class Schedule:
    """Departure times along a tour plus the total driving time.

    `departures[0]` is the depot start (always 0); one entry follows per
    visited client. `total_cost` is the arrival time back at the depot.
    """

    departures: tuple
    total_cost: int | float


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the randomized search.

    n_grasp construction trials keep the best tour; each insertion is drawn
    from the k_grasp cheapest. The improvement pass runs n_improve times,
    deleting l_delete nodes (drawn from the k_del largest savings) and
    reinserting each at one of its k_ins cheapest slots. The default
    k_ins=1 reinserts greedily, which benchmarks better at a fixed budget
    than randomized reinsertion; deletions stay randomized.
    """

    n_grasp: int = 30
    k_grasp: int = 3
    n_improve: int = 20
    l_delete: int = 6
    k_del: int = 3
    k_ins: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            low, high = {"n_improve": (0, 2**63), "seed": (0, 2**64)}.get(f.name, (1, 2**63))
            # a numpy integer would not serialize in result_to_json
            object.__setattr__(self, f.name, _integer(getattr(self, f.name), f.name, low, high))


def layer_index(k, matrix: MultiLayerMatrix) -> int:
    """Layer holding departures at time k; past-horizon times use the last layer."""
    k = _real(k, "departure time", 0)
    return min(int(k // matrix.step_seconds), matrix.n_layers - 1)


def travel_time(i: int, j: int, k, matrix: MultiLayerMatrix):
    """Seconds to drive arc i->j when leaving i at time k.

    Reads (row i, column j) of the departure layer only; asymmetric entries
    are never mixed.
    """
    i, j = _integer(i, "i", 0, matrix.n_nodes), _integer(j, "j", 0, matrix.n_nodes)
    if i == j:
        raise InputError(f"self-arc {i}->{i} has no travel time")
    return matrix.times.item(layer_index(k, matrix), i, j)


def _order_schedule(order, matrix: MultiLayerMatrix) -> Schedule:
    """Fast-path evaluation of a raw visit order (no validation)."""
    arrivals = _arrivals(0, 0, [*order, 0], matrix)
    return Schedule((0, *arrivals[:-1]), arrivals[-1])


def _arrivals(k, prev, nodes, matrix: MultiLayerMatrix) -> list:
    """Scalar walk: leave `prev` at time k, visit `nodes` in order and return
    the arrival time at each; every arc is priced at its departure's layer.

    Arcs are looked up with `times.item`: a nested-list copy of the layers is
    20-35% faster a call but holds about 3 MB more at 101 nodes x 8 layers,
    and a flat `item` or a memoryview index is no faster. On an integer
    matrix the clock is an int, and so is its layer: skipping the int() an
    arc makes a 32-arc walk about 28% faster (7.7 -> 5.5 us, 2 vCPUs)."""
    step = matrix.step_seconds
    last = matrix.n_layers - 1
    times = matrix.times
    arrivals = []
    if times.dtype == np.int64:
        for node in nodes:
            s = k // step
            k = k + times.item(s if s < last else last, prev, node)
            arrivals.append(k)
            prev = node
        return arrivals
    for node in nodes:
        s = int(k // step)
        k = k + times.item(s if s < last else last, prev, node)
        arrivals.append(k)
        prev = node
    return arrivals


def _advance(k, arcs, matrix: MultiLayerMatrix) -> np.ndarray:
    """Walk a batch of lanes in lockstep; return their arrival times.

    Lane r starts at time k[r]. Each array in `arcs` holds the next arc of
    every lane still moving, as a flat index origin * n + destination into
    one layer (it may broadcast over trailing axes of `k`); a lane finishes
    when its arcs end, so each step covers a leading slice of the lanes,
    never longer than the step before. Every arc is priced on the layer of
    its lane's own departure: layer s of arc a is entry s * n * n + a of the
    flattened times, one `take` per step. A one-layer matrix prices every
    departure on layer 0, so there the arc index is the entry. Each arc is
    added in the scalar walk's order, so integer and float sums match
    `_order_schedule` bit for bit. `k` is advanced in place and returned.
    """
    flat = matrix.times.reshape(-1)
    size = matrix.n_nodes**2
    step = matrix.step_seconds
    last = matrix.n_layers - 1
    for arc in arcs:
        lanes = k[: len(arc)]
        if last:
            # clamp first: a float clock far past the horizon overflows intp
            at = lanes // step
            np.minimum(at, last, out=at)
            at = at.astype(np.intp, copy=False)
            at *= size
            at += arc
            lanes += flat.take(at)
        else:
            lanes += flat.take(arc)
    return k


def evaluate_route(route, matrix: MultiLayerMatrix) -> Schedule:
    """Departure times and total driving time of the closed tour.

    The depot departure is time 0; each later departure adds the travel time
    of the incoming arc, costed at the layer of its own departure time. An
    empty route drives the arc 0->0 and costs 0; `_order` checks it against
    matrix.n_nodes.
    """
    return _order_schedule(_order(route, matrix.n_nodes), matrix)


def average_matrix(matrix: MultiLayerMatrix) -> MultiLayerMatrix:
    """Collapse the layers into one by element-wise mean.

    The result keeps the original horizon as its single step, so every lookup
    lands in layer 0. Entries are exact means and may be fractional.
    """
    mean = matrix.times.sum(axis=0, dtype=np.float64) / matrix.n_layers
    return MultiLayerMatrix(times=mean[np.newaxis, :, :], step_seconds=matrix.horizon_seconds)


@dataclass(frozen=True)
class LayerReport:
    layer: int
    triangle_violations: int
    worst_violation: int | float


@dataclass(frozen=True)
class MatrixReport:
    """Diagnostic summary from validate_matrix; ok means the matrix is clean."""

    layers: tuple[LayerReport, ...]

    @property
    def ok(self) -> bool:
        return all(l.triangle_violations == 0 for l in self.layers)

    def summary(self) -> str:
        if self.ok:
            # MultiLayerMatrix refuses negative entries and a nonzero diagonal
            return "matrix clean: no negative entries, zero diagonal, triangle inequality holds"
        parts = []
        for rep in self.layers:
            if rep.triangle_violations:
                parts.append(
                    f"layer {rep.layer}: {rep.triangle_violations} triangle "
                    f"violations (worst {rep.worst_violation})"
                )
        return "; ".join(parts)


def validate_matrix(matrix: MultiLayerMatrix) -> MatrixReport:
    """Scan every layer for triangle inequality violations
    t(i,k) > t(i,j) + t(j,k), in O(n^2) memory per layer.

    Diagnostic only: nothing is modified, and the solver accepts the matrix
    whatever its report says. Negative entries and a nonzero diagonal need
    no scan here: a MultiLayerMatrix never holds one.
    """
    arr = matrix.times
    n = matrix.n_nodes

    # excess(i, j, k) = (t(i,k) - t(i,j)) - t(j,k). On a zero diagonal a triple
    # with a repeated node has excess <= 0 (no time is negative), so every
    # positive excess is a violation. worst[i, k] is the largest excess over
    # j, one intermediate node j at a time; only the rows i where it is
    # positive are counted, one (n, n) slab each.
    layers = []
    for s in range(matrix.n_layers):
        d = arr[s]
        worst = np.subtract(d, d[:, :1]) - d[0]
        excess = np.empty_like(worst)
        for j in range(1, n):
            np.subtract(d, d[:, j : j + 1], out=excess)
            excess -= d[j]
            np.maximum(worst, excess, out=worst)
        count = 0
        for i in np.flatnonzero(worst.max(axis=1) > 0):
            excess = d[i] - d[i][:, None]
            excess -= d
            count += int(np.count_nonzero(excess > 0))
        layers.append(LayerReport(s, count, max(0, worst.max().item())))
    return MatrixReport(tuple(layers))


# --- file formats -----------------------------------------------------------
#
# Matrix file (JSON, integer seconds):
#   {"version": 1, "n_nodes": N, "n_layers": S, "step_seconds": int,
#    "times": [layer][row][col]}
# Instance file (JSON; the depot is node 0):
#   {"version": 1, "depot_index": 0,
#    "nodes": [{"id": int, "lat": number, "lon": number, "label": str}, ...]}
# Readers ignore keys they do not use, such as the "closed" flag older
# matrix files carry.


def matrix_to_json(matrix: MultiLayerMatrix) -> str:
    times = matrix.times
    if times.dtype.kind == "f":  # refuse a fraction rather than round it away
        bad = np.flatnonzero((times != np.floor(times)) | (times >= 2.0**63))
        if bad.size:
            s, i, j = np.unravel_index(bad[0], times.shape)
            v = times[s, i, j]
            raise InputError(f"matrix files hold int64 seconds, not times[{s}][{i}][{j}] = {v}")
        times = times.astype(np.int64)
    doc = {
        "version": 1,
        "n_nodes": matrix.n_nodes,
        "n_layers": matrix.n_layers,
        "step_seconds": matrix.step_seconds,
        "times": times.tolist(),
    }
    return json.dumps(doc)


def matrix_from_json(text: str) -> MultiLayerMatrix:
    doc = _parse_json(text, "matrix")
    _require_version(doc, "matrix")
    try:
        cells = np.array(doc["times"], dtype=object)
        step, n_nodes, n_layers = doc["step_seconds"], doc["n_nodes"], doc["n_layers"]
    except KeyError as exc:
        raise InputError(f"malformed matrix document: {exc}") from exc
    if cells.ndim != 3:  # ragged rows leave lists as entries
        raise InputError(f"times must have shape (layers, n, n), got {cells.shape}")
    n_nodes, n_layers = _integer(n_nodes, "n_nodes", 2), _integer(n_layers, "n_layers", 1)
    matrix = MultiLayerMatrix(times=_integers(cells, "times"), step_seconds=step)
    if matrix.n_nodes != n_nodes or matrix.n_layers != n_layers:
        raise InputError(
            f"matrix header says {n_layers} layers of {n_nodes} nodes but times "
            f"array is {matrix.n_layers}x{matrix.n_nodes}x{matrix.n_nodes}"
        )
    return matrix


def instance_to_json(instance: Instance) -> str:
    doc = {
        "version": 1,
        "depot_index": 0,
        "nodes": [
            {"id": n.id, "lat": n.lat, "lon": n.lon, "label": n.label}
            for n in instance.nodes
        ],
    }
    return json.dumps(doc)


def instance_from_json(text: str) -> Instance:
    doc = _parse_json(text, "instance")
    _require_version(doc, "instance")
    _integer(doc.get("depot_index", 0), "depot_index", 0, 1)  # the depot is node 0
    try:
        nodes = [Node(raw["id"], raw["lat"], raw["lon"], raw.get("label", ""))
                 for raw in doc["nodes"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    return Instance(nodes=nodes)


def save_matrix(matrix: MultiLayerMatrix, path) -> None:
    _write_text(path, matrix_to_json(matrix) + "\n")


def load_matrix(path) -> MultiLayerMatrix:
    return matrix_from_json(_read_text(path))


def save_instance(instance: Instance, path) -> None:
    _write_text(path, instance_to_json(instance) + "\n")


def load_instance(path) -> Instance:
    return instance_from_json(_read_text(path))


# --- the file boundary: every file the package reads or writes whole --------


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _decode(data: bytes, path) -> str:
    """The UTF-8 text of `data`, read from `path`; line ends are kept as they are."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_text(path) -> str:
    return _decode(_read_bytes(path), path)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _not_a_json_number(constant):
    raise ValueError(f"{constant} is not a JSON number")


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_not_a_json_number)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{what} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError as exc:  # NaN or Infinity, or an integer too long to convert
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} document must be a JSON object")
    return doc


def _require_version(doc: dict, what: str) -> None:
    if doc.get("version") != 1:
        raise InputError(f"unsupported {what} format version {doc.get('version')!r}")
