"""The dense element store of tdvrp.fetch against plain-dict references.

read_cache_file, RecordedBackend and execute_fetch hold elements in index-keyed
numpy layers. Each is checked here against a straightforward dict keyed on
(origin, destination, departure_epoch): random element subsets, repeated keys
with different values, epochs off the plan's grid, negative and out-of-range
indices, self-pairs, blank lines and a torn last line.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdvrp.errors import IncompleteMatrixError, InputError
from tdvrp.fetch import RecordedBackend, execute_fetch, plan_fetch, read_cache_file

from conftest import grid_instance

START = 1_700_000_000
STEP = 3600


def _line(o, d, t, s):
    return json.dumps({"o": o, "d": d, "t": t, "s": s}) + "\n"


def reference_rows(text):
    """Rows of a cache text, one whole line at a time, as the format defines."""
    rows = []
    for line in text.split("\n")[:-1]:
        if line.strip():
            rec = json.loads(line)
            rows.append((rec["o"], rec["d"], rec["t"], rec["s"]))
    return rows


class DictBackend:
    """Recorded replay keyed on (o, d, t) in a dict; later rows win."""

    def __init__(self, rows):
        self.values = {(o, d, t): s for o, d, t, s in rows}
        self.calls = 0

    def query(self, origins, destinations, departure_time):
        self.calls += 1
        grid = [
            [0 if o == d else self.values.get((o, d, departure_time)) for d in destinations]
            for o in origins
        ]
        answered = [[value is not None for value in row] for row in grid]
        values = [[value or 0 for value in row] for row in grid]
        return np.array(values, dtype=np.int64), np.array(answered, dtype=bool)


def reference_fetch(plan, backend, cache_text):
    """execute_fetch over a dict cache: returns (times or None, holes, file text)."""
    cache = {}
    for o, d, t, s in reference_rows(cache_text):
        cache[(o, d, t)] = s
    text = cache_text[: cache_text.rfind("\n") + 1]
    for req in plan.requests:
        t = req.departure_time
        if all(
            o == d or (o, d, t) in cache
            for o in req.origin_indices
            for d in req.destination_indices
        ):
            continue
        values, answered = backend.query(req.origin_indices, req.destination_indices, t)
        for i, o in enumerate(req.origin_indices):
            for j, d in enumerate(req.destination_indices):
                if o != d and answered[i][j]:
                    cache[(o, d, t)] = int(values[i][j])
                    text += _line(o, d, t, int(values[i][j]))
    n = plan.n_nodes
    times = np.zeros((plan.n_layers, n, n), dtype=np.int64)
    holes = []
    for layer in range(plan.n_layers):
        t = plan.start_epoch + layer * plan.step_seconds
        for o in range(n):
            for d in range(n):
                if o != d:
                    if (o, d, t) in cache:
                        times[layer, o, d] = cache[(o, d, t)]
                    else:
                        holes.append((layer, o, d))
    return (None if holes else times), holes, text


# --- strategies ---------------------------------------------------------------


@st.composite
def element_rows(draw, n, n_layers, max_rows=60):
    """Rows around an n-node, n_layers grid: mostly on it, some off it."""
    grid_epochs = [START + s * STEP for s in range(n_layers)]
    index = st.one_of(st.integers(0, n - 1), st.integers(-3, n + 2))
    epoch = st.one_of(
        st.sampled_from(grid_epochs),
        st.sampled_from([START - STEP, START + 1, START + n_layers * STEP]),
    )
    seconds = st.sampled_from([1, 60, 600]) | st.integers(-10, 10**7)
    rows = draw(st.lists(st.tuples(index, index, epoch, seconds), max_size=max_rows))
    if rows and draw(st.booleans()):
        # the same element again with another value
        o, d, t, s = draw(st.sampled_from(rows))
        rows.append((o, d, t, s + 1))
    return rows


@st.composite
def cache_texts(draw, rows):
    """The rows as cache lines, with blank lines and maybe a torn last line."""
    text = ""
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            text += draw(st.sampled_from(["\n", "  \n", "\t\n"]))
        text += _line(*row)
    if draw(st.booleans()):
        whole = _line(draw(st.integers(0, 5)), 1, START, 77)
        text += whole[: draw(st.integers(1, len(whole) - 1))]
    return text


@st.composite
def fetch_cases(draw):
    n = draw(st.integers(2, 6))
    n_layers = draw(st.integers(1, 3))
    limit = draw(st.integers(1, 40))
    recorded = draw(element_rows(n, n_layers))
    if draw(st.booleans()):
        # a complete recording, so most cases assemble a whole matrix
        recorded = [
            (o, d, START + s * STEP, 100 + 7 * o + d + s)
            for s in range(n_layers)
            for o in range(n)
            for d in range(n)
            if o != d
        ] + recorded
    cached = draw(element_rows(n, n_layers, max_rows=30))
    return n, n_layers, limit, recorded, draw(cache_texts(cached))


# --- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_read_cache_file_matches_line_by_line_reading(tmp_path_factory, data):
    rows = data.draw(element_rows(5, 2))
    text = data.draw(cache_texts(rows))
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    path.write_text(text, encoding="utf-8")
    got = read_cache_file(path)
    assert got.dtype == np.int64 and got.shape == (len(reference_rows(text)), 4)
    assert got.tolist() == [list(r) for r in reference_rows(text)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recorded_backend_matches_dict_replay(data):
    n = data.draw(st.integers(2, 6))
    inst = grid_instance(n)
    rows = data.draw(element_rows(n, 2))
    backend = RecordedBackend(inst, rows)
    reference = DictBackend(rows)
    for _ in range(3):
        origins = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
        destinations = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
        t = data.draw(st.sampled_from([START, START + STEP, START + 1]))
        values, answered = backend.query(origins, destinations, t)
        want_values, want_answered = reference.query(origins, destinations, t)
        assert values.dtype == np.int64 and answered.dtype == bool
        assert answered.tolist() == want_answered.tolist()
        assert np.where(answered, values, 0).tolist() == want_values.tolist()


@settings(max_examples=80, deadline=None)
@given(fetch_cases())
def test_execute_fetch_matches_dict_fetch(tmp_path_factory, case):
    n, n_layers, limit, recorded, cache_text = case
    inst = grid_instance(n)
    plan = plan_fetch(
        n, n_layers, step_seconds=STEP, start_epoch=START, elements_per_request_limit=limit
    )
    path = tmp_path_factory.mktemp("fetch") / "cache.jsonl"
    path.write_text(cache_text, encoding="utf-8")
    reference = DictBackend(recorded)
    want_times, want_holes, want_text = reference_fetch(plan, reference, cache_text)
    # a complete matrix with a negative time is refused at assembly
    refused = want_times is not None and bool((want_times < 0).any())

    try:
        matrix = execute_fetch(plan, RecordedBackend(inst, recorded), inst, cache_path=path)
        holes = []
    except IncompleteMatrixError as err:
        matrix, holes = None, err.holes
    except InputError as err:
        assert refused and "travel times must be >= 0" in str(err)
        matrix, holes = None, []
    assert holes == want_holes
    assert (matrix is None) == (want_times is None or refused)
    if matrix is not None:
        assert np.array_equal(matrix.times, want_times)
    assert path.read_text(encoding="utf-8") == want_text

    # the same fetch through the dict backend sends the same queries
    path.write_text(cache_text, encoding="utf-8")
    backend = DictBackend(recorded)
    try:
        execute_fetch(plan, backend, inst, cache_path=path)
    except (IncompleteMatrixError, InputError):
        pass
    assert backend.calls == reference.calls
    assert path.read_text(encoding="utf-8") == want_text


def test_corrupt_middle_line_names_its_line_number(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = [_line(0, 1, START, 60), "\n", _line(1, 0, START, 70), '{"o": 1, "d": 2\n',
             _line(2, 1, START, 80)]
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(InputError, match="bad cache line 4"):
        read_cache_file(path)
    path.write_text("".join(lines[:3] + ['{"o": 1, "d": 2, "t": 5}\n'] + lines[4:]))
    with pytest.raises(InputError, match="bad cache line 4"):
        read_cache_file(path)
    path.write_text("".join(lines[:3] + ['{"o": 1, "d": 2, "t": 5, "s": null}\n'] + lines[4:]))
    with pytest.raises(InputError, match="bad cache line 4"):
        read_cache_file(path)
    two_records = _line(1, 2, START, 5).strip() + ", " + _line(2, 0, START, 6)
    path.write_text("".join(lines[:3] + [two_records] + lines[4:]))
    with pytest.raises(InputError, match="bad cache line 4"):
        read_cache_file(path)
    # values that are not JSON integers are rejected, never coerced
    for record in ('{"o": 1, "d": 2, "t": 5, "s": true}', '{"o": 1.5, "d": 2, "t": 5, "s": 9}',
                   '{"o": "1", "d": 2, "t": 5, "s": 9}', '{"o": 1, "d": 2, "t": 5, "s": 7.0}'):
        path.write_text("".join(lines[:3] + [record + "\n"] + lines[4:]))
        with pytest.raises(InputError, match="bad cache line 4"):
            read_cache_file(path)


def test_bad_line_past_the_first_chunk_is_named_by_its_line_number(tmp_path):
    # parsed in chunks of 4,096 lines: the number counts every line, blank ones too
    lines = [_line(0, 1, START, 60) if i % 10 else "\n" for i in range(4099)]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines + ['{"o": 1, "d": 2, "t": 5, "s": 1.5}\n', lines[1]]))
    with pytest.raises(InputError, match="bad cache line 4100 in"):
        read_cache_file(path)


def test_torn_last_line_past_the_first_chunk_is_skipped(tmp_path):
    rows = [(i % 5, (i + 1) % 5, START + i, i) for i in range(5000)]
    text = "".join(_line(*row) for row in rows)
    path = tmp_path / "cache.jsonl"
    path.write_text(text + _line(1, 2, START, 7)[:9], encoding="utf-8")
    got = read_cache_file(path)
    assert got.dtype == np.int64 and got.tolist() == [list(r) for r in rows]
