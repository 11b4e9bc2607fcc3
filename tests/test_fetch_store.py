"""The dense element store of tdvrp.fetch against plain-dict references.

read_cache_file, RecordedBackend and execute_fetch hold elements in index-keyed
numpy layers. Each is checked here against a straightforward dict keyed on
(origin, destination, departure_epoch): random element subsets, repeated keys
with different values, epochs off the plan's grid, negative and out-of-range
indices, self-pairs, blank lines and a torn last line. read_cache_file's one
pass over lines as execute_fetch writes them is checked against the same
line-by-line reading, over the whole int64 range and with one line swapped
for a valid or bad variant the pass must leave to the JSON parser.
"""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdvrp import fetch
from tdvrp.cli import main
from tdvrp.errors import IncompleteMatrixError, InputError
from tdvrp.fetch import RecordedBackend, execute_fetch, plan_fetch, read_cache_file
from tdvrp.instances import bundled_paris
from tdvrp.model import load_matrix, save_instance
from tdvrp.synth import TrafficProfile, generate_synthetic

from conftest import grid_instance

START = 1_700_000_000
STEP = 3600


def _line(o, d, t, s):
    return json.dumps({"o": o, "d": d, "t": t, "s": s}) + "\n"


class BadLine(Exception):
    def __init__(self, lineno):
        super().__init__(f"bad cache line {lineno}")
        self.lineno = lineno


def _refuse(token):
    raise ValueError(f"{token} is not an integer")


def reference_rows(text):
    """Rows of a cache text, one whole line at a time, as the format defines:
    each line that is not blank holds an "o", "d", "t" and "s" that are JSON
    integers in the int64 range. The first line that does not raises BadLine."""
    rows = []
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        if line.strip():
            try:
                rec = json.loads(line, parse_float=_refuse, parse_constant=_refuse)
                row = tuple(rec[key] for key in "odts")
            except (ValueError, KeyError, TypeError) as exc:
                raise BadLine(lineno) from exc
            if any(type(v) is not int or not -(2**63) <= v < 2**63 for v in row):
                raise BadLine(lineno)
            rows.append(row)
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
                if o == d or not answered[i][j] and (o, d, t) in cache:
                    continue
                # an element asked for and not answered is cached as a hole, -1
                cache[(o, d, t)] = int(values[i][j]) if answered[i][j] else -1
                text += _line(o, d, t, cache[(o, d, t)])
    n = plan.n_nodes
    times = np.zeros((plan.n_layers, n, n), dtype=np.int64)
    holes = []
    for layer in range(plan.n_layers):
        t = plan.start_epoch + layer * plan.step_seconds
        for o in range(n):
            for d in range(n):
                if o != d:
                    if cache.get((o, d, t), -1) != -1:
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


def test_bad_line_number_counts_every_line_blank_ones_too(tmp_path):
    lines = [_line(0, 1, START, 60) if i % 10 else "\n" for i in range(4099)]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines + ['{"o": 1, "d": 2, "t": 5, "s": 1.5}\n', lines[1]]))
    with pytest.raises(InputError, match="bad cache line 4100 in"):
        read_cache_file(path)


def test_torn_last_line_of_a_long_file_is_skipped(tmp_path):
    rows = [(i % 5, (i + 1) % 5, START + i, i) for i in range(5000)]
    text = "".join(_line(*row) for row in rows)
    path = tmp_path / "cache.jsonl"
    path.write_text(text + _line(1, 2, START, 7)[:9], encoding="utf-8")
    got = read_cache_file(path)
    assert got.dtype == np.int64 and got.tolist() == [list(r) for r in rows]


# --- the one-pass read of written lines ---------------------------------------

_ANY = '{"o": %s, "d": %s, "t": %s, "s": %s}\n'

# One line of a written cache swapped for a valid line the package does not
# write, which the JSON parser reads, or a bad line, which it names.
VARIANTS = {
    "leading zero": lambda o, d, t, s: _ANY % ("0%d" % abs(o), d, t, s),
    "minus zero": lambda o, d, t, s: _ANY % ("-0", d, t, s),
    "lone minus": lambda o, d, t, s: _ANY % ("-", d, t, s),
    "double minus": lambda o, d, t, s: _ANY % ("--1", d, t, s),
    "minus inside a value": lambda o, d, t, s: _ANY % ("1-2", d, t, s),
    "empty value": lambda o, d, t, s: _ANY % ("", d, t, s),
    "2**63": lambda o, d, t, s: _ANY % (o, d, t, 2**63),
    "19-digit overflow": lambda o, d, t, s: _ANY % (o, d, t, 10**19 - 1),
    "20 digits": lambda o, d, t, s: _ANY % (o, d, t, 10**19),
    "other key order": lambda o, d, t, s: '{"d": %d, "o": %d, "t": %d, "s": %d}\n' % (d, o, t, s),
    "compact separators": lambda *row: '{"o":%d,"d":%d,"t":%d,"s":%d}\n' % row,
    "extra key": lambda *row: '{"o": %d, "d": %d, "t": %d, "s": %d, "x": 1}\n' % row,
    "digit in a key": lambda *row: '{"o1": %d, "d": %d, "t": %d, "s": %d}\n' % row,
    "minus before a key": lambda *row: '{"o": %d, -"d": %d, "t": %d, "s": %d}\n' % row,
    "blank line": lambda *row: "\n",
    "whitespace-only line": lambda *row: " \t \n",
    "CRLF ending": lambda *row: (_ANY % row)[:-1] + "\r\n",
    "7.0": lambda o, d, t, s: _ANY % (o, d, t, "7.0"),
    "two records on one line": lambda *row: (_ANY % row)[:-1] + ", " + _ANY % row,
    "digit after the record": lambda *row: (_ANY % row)[:-1] + "5\n",
    "empty value, digit after the record": lambda o, d, t, s: (_ANY % ("", d, t, s))[:-1] + "5\n",
    # a value a few bytes early or late: the one pass finds it by the last
    # byte, or the first, of the value where _RECORD puts it
    "value before its colon": lambda o, d, t, s: '{"o": %d, "d": %d, "t": %d, "s"%d: }\n' % (
        o, d, t, 100 + abs(s) % 900),
    "value after the closing brace": lambda o, d, t, s: '{"o": %d, "d": %d, "t": %d, "s": }%d\n' % (
        o, d, t, 10 + abs(s) % 90),
    # numpy reads "- 12" as -12: only the rule that a "-" comes before a digit
    # keeps these from reading as a line of four values
    "lone minus, digit after the record": lambda o, d, t, s: (_ANY % ("-", d, t, s))[:-1] + "5\n",
    "lone minus, digits in the next gap":
        lambda o, d, t, s: (_ANY % ("-", d, t, s)).replace(",", ",%d" % (10 + abs(o) % 90), 1),
}

int64s = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1, 2**63 - 1, -(2**63)])
# the int64 limits send a whole file to the JSON parser, so that the one pass,
# not the limits, meets each variant
inner_int64s = st.integers(-(2**63) + 1, 2**63 - 2)


def assert_read_as_reference(path, text):
    """read_cache_file(path) gives the reference rows of text, or names the
    same bad line."""
    try:
        want = reference_rows(text)
    except BadLine as bad:
        with pytest.raises(InputError, match=f"bad cache line {bad.lineno} in "):
            read_cache_file(path)
    else:
        got = read_cache_file(path)
        assert got.dtype == np.int64 and got.shape == (len(want), 4)
        assert got.tolist() == [list(r) for r in want]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(int64s, int64s, int64s, int64s), max_size=12), data=st.data())
def test_written_lines_read_as_line_by_line_reading(tmp_path_factory, rows, data):
    text = "".join(fetch._RECORD % row for row in rows)
    if rows and data.draw(st.booleans()):
        whole = fetch._RECORD % rows[0]
        text += whole[: data.draw(st.integers(1, len(whole) - 1))]  # a torn tail
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    path.write_text(text, encoding="utf-8")
    assert_read_as_reference(path, text)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(*[inner_int64s] * 4), min_size=1, max_size=8), data=st.data())
def test_one_unusual_line_reads_as_line_by_line_reading(tmp_path_factory, variant, rows, data):
    lines = [fetch._RECORD % row for row in rows]
    index = data.draw(st.integers(0, len(rows) - 1))
    lines[index] = VARIANTS[variant](*rows[index])
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert_read_as_reference(path, "".join(lines))


@st.composite
def mutated_caches(draw):
    """Lines as execute_fetch writes them, then one to three edits: a digit or
    "-" inserted, a byte deleted, two neighbours swapped, or a run of digits
    and "-" moved within its line."""
    values = st.integers(-99, 999) | inner_int64s
    rows = draw(st.lists(st.tuples(*[values] * 4), min_size=1, max_size=6))
    text = "".join(fetch._RECORD % row for row in rows)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "swap", "move"]))
        i = draw(st.integers(0, len(text) - 1))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from("0123456789-")) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        elif edit == "swap" and i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
        elif edit == "move":
            runs = [m.span() for m in re.finditer(r"[0-9-]+", text)]
            if not runs:
                continue
            a, b = draw(st.sampled_from(runs))
            a = draw(st.integers(a, b - 1))
            b = draw(st.integers(a + 1, b))
            run, text = text[a:b], text[:a] + text[b:]
            line_start = text.rfind("\n", 0, a) + 1
            line_end = text.find("\n", a)
            j = draw(st.integers(line_start, len(text) if line_end < 0 else line_end))
            text = text[:j] + run + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(text=mutated_caches())
def test_edited_written_lines_read_as_line_by_line_reading(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    path.write_text(text, encoding="utf-8")
    assert_read_as_reference(path, text)


def test_lines_execute_fetch_writes_are_read_in_one_pass(tmp_path, monkeypatch):
    n = 4
    inst = grid_instance(n)
    plan = plan_fetch(n, 2, step_seconds=STEP, start_epoch=START, elements_per_request_limit=5)
    odd = {(0, 1): -7, (1, 2): 10**18 + 3, (2, 3): -(10**18), (3, 0): 2**63 - 2}
    recorded = [
        (o, d, START + layer * STEP, odd.get((o, d), 60 + 7 * o + d))
        for layer in range(2)
        for o in range(n)
        for d in range(n)
        if o != d and (layer, o, d) != (1, 2, 1)  # a hole
    ]
    path = tmp_path / "cache.jsonl"
    with pytest.raises(IncompleteMatrixError):
        execute_fetch(plan, RecordedBackend(inst, recorded), inst, cache_path=path)
    # byte for byte the lines an f-string per element writes; the hole as -1
    values = {(o, d, t): s for o, d, t, s in recorded}
    want = "".join(
        f'{{"o": {o}, "d": {d}, "t": {t}, "s": {values.get((o, d, t), -1)}}}\n'
        for req in plan.requests
        for t in [req.departure_time]
        for o in req.origin_indices
        for d in req.destination_indices
        if o != d
    )
    assert path.read_text(encoding="utf-8") == want

    calls = []
    parse_lines = fetch._parse_lines
    monkeypatch.setattr(
        fetch, "_parse_lines", lambda lines, path: calls.append(lines) or parse_lines(lines, path)
    )
    assert read_cache_file(path).tolist() == [list(r) for r in reference_rows(want)]
    assert calls == []
    # the spy sees the JSON parser: a blank line sends the file there
    path.write_text("\n" + want, encoding="utf-8")
    assert read_cache_file(path).tolist() == [list(r) for r in reference_rows(want)]
    assert calls


def _written_cache(tmp_path, rows):
    text = "".join(fetch._RECORD % row for row in rows)
    path = tmp_path / "cache.jsonl"
    path.write_text(text, encoding="utf-8")
    return path, text


@pytest.mark.parametrize("chunk_bytes", [1, 46, 47, 65_536])
def test_written_lines_read_in_chunks_give_the_whole_file_rows(tmp_path, monkeypatch, chunk_bytes):
    # lines of 42 to 48 bytes, most of 46 or 47, so a chunk of 46 or 47 bytes
    # ends inside a line or just past its newline; chunks of 1 byte are one line each
    rows = [(i % 101, (7 * i) % 101, START + STEP * (i % 3), (-1) ** i * (i % 997))
            for i in range(3000)]
    path, text = _written_cache(tmp_path, rows)
    calls = []
    monkeypatch.setattr(fetch, "_parse_lines", lambda lines, path: calls.append(lines))
    monkeypatch.setattr(fetch, "_CHUNK_BYTES", chunk_bytes)
    got = read_cache_file(path)
    assert got.dtype == np.int64 and got.tolist() == [list(r) for r in rows]
    assert calls == []


def test_a_bad_line_in_a_later_chunk_is_named_by_its_file_line(tmp_path, monkeypatch):
    lines = [fetch._RECORD % (i % 5, (i + 1) % 5, START, i) for i in range(5000)]
    lines[3999] = '{"o": 1, "d": 2, "t": 5, "s": 1.5}\n'
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    monkeypatch.setattr(fetch, "_CHUNK_BYTES", 4096)
    with pytest.raises(InputError, match="bad cache line 4000 in"):
        read_cache_file(path)


def test_reading_a_written_cache_holds_little_beyond_its_bytes_and_rows(tmp_path):
    # 101 nodes x 12 layers, 5.4 MiB: the reader holds the file's bytes and the rows,
    # and a chunk's temporaries (the whole file's were 11 MiB)
    rows = [(o, d, START + STEP * layer, 60 + (7 * o + 13 * d + layer) % 3000)
            for layer in range(12) for o in range(101) for d in range(101) if o != d]
    path, text = _written_cache(tmp_path, rows)
    tracemalloc.start()
    try:
        got = read_cache_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (len(rows), 4) and got[-1].tolist() == list(rows[-1])
    assert peak < len(text) + got.nbytes + 2 * 2**20


def test_a_compact_recording_fetches_the_bytes_of_the_canonical_one(tmp_path, monkeypatch):
    # the same Paris31 recording, once as execute_fetch writes lines and once
    # with compact separators and a blank line, which only the JSON parser reads
    paris = bundled_paris()
    source = generate_synthetic(paris, 2, STEP, TrafficProfile(seed=5))
    rows = [(o, d, START + s * STEP, int(source.times[s, o, d]))
            for s in range(2) for o in range(31) for d in range(31) if o != d]
    compact = ['{"o":%d,"d":%d,"t":%d,"s":%d}\n' % row for row in rows]
    compact.insert(len(rows) // 2, "\n")
    inst_path = tmp_path / "paris.json"
    save_instance(paris, inst_path)
    calls = []
    parse_lines = fetch._parse_lines
    monkeypatch.setattr(
        fetch, "_parse_lines", lambda lines, path: calls.append(path) or parse_lines(lines, path)
    )
    fetched = []
    for name, lines in (("canonical", [_line(*row) for row in rows]), ("compact", compact)):
        fixture, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
        fixture.write_text("".join(lines), encoding="utf-8")
        assert main(["fetch", "--instance", str(inst_path), "--backend", "recorded",
                     "--recorded", str(fixture), "--layers", "2", "--step-seconds", str(STEP),
                     "--start-epoch", str(START), "--out", str(out)]) == 0
        fetched.append(out.read_bytes())
    assert calls == [str(tmp_path / "compact.jsonl")]
    assert fetched[0] == fetched[1]
    assert np.array_equal(load_matrix(tmp_path / "compact.json").times, source.times)
