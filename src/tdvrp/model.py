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
    """A depot plus client locations. Node ids are 0..N-1 with the depot at 0."""

    nodes: tuple[Node, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) < 2:
            raise InputError("an instance needs a depot plus at least one client")
        for pos, node in enumerate(self.nodes):
            if node.id != pos:
                raise InputError(
                    f"node ids must be 0..N-1 in order; position {pos} has id {node.id}"
                )
            if not -90.0 <= node.lat <= 90.0:
                raise InputError(f"node {node.id}: latitude {node.lat} out of range")
            if not -180.0 <= node.lon <= 180.0:
                raise InputError(f"node {node.id}: longitude {node.lon} out of range")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def coordinates(self) -> list[tuple[float, float]]:
        return [(n.lat, n.lon) for n in self.nodes]


def _integer(value, name: str) -> int:
    """`value` as an int; an InputError naming `name` unless it is one (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_times_array(times) -> np.ndarray:
    arr = np.asarray(times)
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
    times, each >= 0 and finite (not NaN, not infinite), and a positive
    integer step_seconds.
    """

    times: np.ndarray
    step_seconds: int

    def __post_init__(self):
        step = _integer(self.step_seconds, "step_seconds")
        if step <= 0:
            raise InputError(f"step_seconds must be positive, got {step}")
        object.__setattr__(self, "step_seconds", step)
        object.__setattr__(self, "times", _as_times_array(self.times))

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

    The depot never appears in `order`. A complete route is a permutation of
    all clients; partial routes occur during construction.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(v) for v in self.order)
        object.__setattr__(self, "order", order)
        seen = set()
        for v in order:
            if v == 0:
                raise RouteError("the depot cannot appear inside a route")
            if v < 0:
                raise RouteError(f"negative node index {v} in route")
            if v in seen:
                raise RouteError(f"duplicate node {v} in route")
            seen.add(v)

    def __len__(self) -> int:
        return len(self.order)

    def is_complete(self, n_nodes: int) -> bool:
        return set(self.order) == set(range(1, n_nodes))


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
            # a numpy integer would not serialize in result_to_json
            object.__setattr__(self, f.name, _integer(getattr(self, f.name), f.name))
        for name in ("n_grasp", "k_grasp", "l_delete", "k_del", "k_ins"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_improve < 0:
            raise InputError(f"n_improve must be >= 0, got {self.n_improve}")
        if self.seed < 0 or self.seed >= 2**64:
            raise InputError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def layer_index(k, matrix: MultiLayerMatrix) -> int:
    """Layer holding departures at time k; past-horizon times use the last layer."""
    if k < 0:
        raise InputError(f"departure time must be >= 0, got {k}")
    return min(int(k // matrix.step_seconds), matrix.n_layers - 1)


def travel_time(i: int, j: int, k, matrix: MultiLayerMatrix):
    """Seconds to drive arc i->j when leaving i at time k.

    Reads (row i, column j) of the departure layer only; asymmetric entries
    are never mixed.
    """
    n = matrix.n_nodes
    if i == j:
        raise InputError(f"self-arc {i}->{i} has no travel time")
    if not (0 <= i < n) or not (0 <= j < n):
        raise InputError(f"arc {i}->{j} out of range for {n} nodes")
    return matrix.times.item(layer_index(k, matrix), i, j)


def _order_schedule(order, matrix: MultiLayerMatrix) -> Schedule:
    """Fast-path evaluation of a raw visit order (no validation)."""
    if not order:
        return Schedule((0,), 0)
    arrivals = _arrivals(0, 0, [*order, 0], matrix)
    return Schedule((0, *arrivals[:-1]), arrivals[-1])


def _arrivals(k, prev, nodes, matrix: MultiLayerMatrix) -> list:
    """Scalar walk: leave `prev` at time k, visit `nodes` in order and return
    the arrival time at each; every arc is priced at its departure's layer."""
    step = matrix.step_seconds
    last = matrix.n_layers - 1
    times = matrix.times
    arrivals = []
    for node in nodes:
        s = int(k // step)
        if s > last:
            s = last
        k = k + times.item(s, prev, node)
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
    empty route costs 0.
    """
    order = route.order if isinstance(route, Route) else Route(tuple(route)).order
    n = matrix.n_nodes
    for v in order:
        if v >= n:
            raise RouteError(f"node {v} out of range for {n}-node matrix")
    return _order_schedule(order, matrix)


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

    nonzero_diagonal: int
    layers: tuple[LayerReport, ...]

    @property
    def ok(self) -> bool:
        return self.nonzero_diagonal == 0 and all(l.triangle_violations == 0 for l in self.layers)

    def summary(self) -> str:
        if self.ok:
            # no matrix has negative entries: MultiLayerMatrix refuses them
            return "matrix clean: no negative entries, zero diagonal, triangle inequality holds"
        parts = []
        if self.nonzero_diagonal:
            parts.append(f"{self.nonzero_diagonal} nonzero diagonal entries")
        for rep in self.layers:
            if rep.triangle_violations:
                parts.append(
                    f"layer {rep.layer}: {rep.triangle_violations} triangle "
                    f"violations (worst {rep.worst_violation})"
                )
        return "; ".join(parts)


_VALIDATE_BLOCK = 1 << 21  # elements: n = 101 is still one block of rows


def validate_matrix(matrix: MultiLayerMatrix) -> MatrixReport:
    """Scan every layer for nonzero diagonal and triangle inequality
    violations t(i,k) > t(i,j) + t(j,k).

    Diagnostic only: nothing is modified, and the solver accepts the matrix
    whatever its report says. Negative entries need no scan here: a
    MultiLayerMatrix never holds one.
    """
    arr = matrix.times
    n = matrix.n_nodes
    diag = int((arr[:, range(n), range(n)] != 0).sum())

    # excess[i, j, k] = t(i,k) - t(i,j) - t(j,k), over blocks of origin rows i
    # so temporaries stay near _VALIDATE_BLOCK elements. Each layer is scanned
    # with a zero diagonal, where a triple with a repeated node has excess
    # <= 0 (no time is negative), so every positive entry is a violation.
    rows = max(1, _VALIDATE_BLOCK // (n * n))
    layers = []
    for s in range(matrix.n_layers):
        d = arr[s].copy()
        np.fill_diagonal(d, 0)
        count, worst = 0, 0
        for i0 in range(0, n, rows):
            block = d[i0 : i0 + rows]
            excess = block[:, None, :] - block[:, :, None]
            excess -= d
            count += int((excess > 0).sum())
            worst = max(worst, excess.max().item())
        layers.append(LayerReport(s, count, worst))
    return MatrixReport(diag, tuple(layers))


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
        times = _times_from_json(doc["times"])
        step, n_nodes, n_layers = (
            _expect(doc[name], "integer", f"matrix field {name!r}")
            for name in ("step_seconds", "n_nodes", "n_layers")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix document: {exc}") from exc
    matrix = MultiLayerMatrix(times=times, step_seconds=step)
    if matrix.n_nodes != n_nodes or matrix.n_layers != n_layers:
        raise InputError(
            f"matrix header says {n_layers} layers of {n_nodes} nodes but times "
            f"array is {matrix.n_layers}x{matrix.n_nodes}x{matrix.n_nodes}"
        )
    return matrix


def _times_from_json(raw) -> np.ndarray:
    """The `times` of a matrix document as int64; every entry must be a JSON
    integer (not a float, a bool or a string, which numpy would coerce).
    """
    cells = np.array(raw, dtype=object)
    if cells.ndim != 3:
        raise InputError(f"times must have shape (layers, n, n), got {cells.shape}")
    flat = cells.ravel().tolist()

    def where(at):
        layer, row, col = np.unravel_index(at, cells.shape)
        return f"times[{layer}][{row}][{col}] = {json.dumps(flat[at])}"

    if set(map(type, flat)) - {int}:
        at = next(i for i, v in enumerate(flat) if type(v) is not int)
        raise InputError(f"matrix entry {where(at)} is not a JSON integer")
    try:
        times = np.array(flat, dtype=np.int64)
    except OverflowError:
        at = next(i for i, v in enumerate(flat) if not -(2**63) <= v < 2**63)
        raise InputError(f"matrix entry {where(at)} does not fit in 64 bits") from None
    return times.reshape(cells.shape)


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
    depot = doc.get("depot_index", 0)
    if type(depot) is not int or depot != 0:
        raise InputError(
            f"instance field 'depot_index' = {json.dumps(depot)} is not the JSON integer 0"
        )
    try:
        nodes = [_node_from_json(raw, pos) for pos, raw in enumerate(doc["nodes"])]
    except (KeyError, TypeError, OverflowError) as exc:  # an int too large for a float
        raise InputError(f"malformed instance document: {exc}") from exc
    return Instance(nodes=tuple(sorted(nodes, key=lambda node: node.id)))


def _node_from_json(raw: dict, pos: int) -> Node:
    """Entry `pos` of an instance's node list; each field must have its JSON type."""

    def field(name, kind):
        return _expect(raw[name], kind, f"instance entry nodes[{pos}].{name}")

    node_id = field("id", "integer")
    lat, lon = (float(field(name, "number")) for name in ("lat", "lon"))
    label = field("label", "string") if "label" in raw else ""
    return Node(node_id, lat, lon, label)


def save_matrix(matrix: MultiLayerMatrix, path) -> None:
    _write_text(path, matrix_to_json(matrix) + "\n")


def load_matrix(path) -> MultiLayerMatrix:
    return matrix_from_json(_read_text(path))


def save_instance(instance: Instance, path) -> None:
    _write_text(path, instance_to_json(instance) + "\n")


def load_instance(path) -> Instance:
    return instance_from_json(_read_text(path))


# --- the file boundary: every file the package reads or writes whole --------


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# the Python types of each JSON kind; a bool (an int to Python) is none of them
_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "list": (list,)}


def _expect(value, kind: str, where: str):
    """`value` if it is a JSON `kind`, else an InputError naming `where`."""
    if type(value) not in _JSON_TYPES[kind]:
        raise InputError(f"{where} = {json.dumps(value)} is not a JSON {kind}")
    return value


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
