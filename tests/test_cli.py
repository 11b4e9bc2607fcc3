import json
from types import SimpleNamespace

import numpy as np
import pytest

from tdvrp import compare
from tdvrp.cli import main
from tdvrp.errors import InputError, InvariantError
from tdvrp.model import (
    Route,
    Schedule,
    SolverParams,
    load_matrix,
    matrix_to_json,
    save_instance,
    save_matrix,
    validate_matrix,
)
from tdvrp.grasp import result_from_json, result_to_json, solve

from conftest import constant_matrix, grid_instance, make_matrix, random_layers


@pytest.fixture
def small_setup(tmp_path, rng):
    inst = grid_instance(5)
    inst_path = tmp_path / "instance.json"
    save_instance(inst, inst_path)
    matrix = make_matrix(random_layers(rng, 5, 3), 1800)
    matrix_path = tmp_path / "matrix.json"
    save_matrix(matrix, matrix_path)
    return inst, inst_path, matrix, matrix_path


FAST = ["--n-grasp", "4", "--n-improve", "3", "--l-delete", "2"]


def test_gen_instance_random(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen-instance", "--clients", "6", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 7
    assert doc["depot_index"] == 0


def test_gen_instance_preset(tmp_path):
    out = tmp_path / "paris.json"
    assert main(["gen-instance", "--preset", "paris31", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 31
    assert doc["nodes"][1]["lat"] == 48.847397


def test_gen_matrix_writes_valid_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen-instance", "--clients", "5", "--seed", "1", "--out", str(inst_path)])
    out = tmp_path / "matrix.json"
    rc = main([
        "gen-matrix", "--instance", str(inst_path), "--layers", "4",
        "--step-seconds", "3600", "--peak", "0:2:1.8", "--jitter", "0.9:1.1",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    matrix = load_matrix(out)
    assert matrix.n_layers == 4 and matrix.n_nodes == 6
    assert validate_matrix(matrix).ok
    assert "matrix clean" in capsys.readouterr().out


def test_solve_writes_result_and_is_reproducible(small_setup, tmp_path, capsys):
    _, inst_path, _, matrix_path = small_setup
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["solve", "--instance", str(inst_path), "--matrix", str(matrix_path),
            "--seed", "7", *FAST]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = result_from_json(out_a.read_text())
    assert sorted(doc["route"]) == [1, 2, 3, 4]
    out = capsys.readouterr().out
    assert "tour: 0 ->" in out and "total driving time:" in out


def test_solve_clamps_l_delete_on_a_small_instance(small_setup, tmp_path):
    # the default l_delete is 6 but the instance has 4 clients
    inst, inst_path, _, matrix_path = small_setup
    out = tmp_path / "result.json"
    assert main(["solve", "--instance", str(inst_path), "--matrix", str(matrix_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["l_delete"] == 4
    # a bare solve runs the library's default params
    expected = solve(inst, load_matrix(matrix_path), SolverParams())
    assert out.read_text() == result_to_json(expected) + "\n"


def test_solve_reports_dimension_mismatch(small_setup, tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    bad_matrix = tmp_path / "bad.json"
    save_matrix(constant_matrix(7, 100), bad_matrix)
    rc = main(["solve", "--instance", str(inst_path), "--matrix", str(bad_matrix), *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert "7" in err and "5" in err


def test_malformed_file_exits_with_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc = main(["solve", "--instance", str(bad), "--matrix", str(bad)])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_an_invariant_failure_exits_4(small_setup, monkeypatch, capsys):
    _, inst_path, _, matrix_path = small_setup

    def broken(*_):
        raise InvariantError("probe")

    monkeypatch.setattr("tdvrp.cli.solve", broken)
    rc = main(["solve", "--instance", str(inst_path), "--matrix", str(matrix_path), *FAST])
    assert rc == 4
    assert "internal error: probe" in capsys.readouterr().err


def test_compare_identical_layers_gap_is_zero(tmp_path, rng, capsys):
    inst = grid_instance(5)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    layer = random_layers(rng, 5, 1)[0]
    matrix_path = tmp_path / "matrix.json"
    save_matrix(make_matrix([layer] * 4, 1800), matrix_path)
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "compare", "--instance", str(inst_path), "--matrix", str(matrix_path),
        "--seeds", "3", "--seed", "0", *FAST, "--out", str(csv_path),
    ])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("seed,")
    for line in rows[1:]:
        assert line.split(",")[3] == "0.000"
    assert "+0.000%" in capsys.readouterr().out


def _compare_on_zero_matrix(tmp_path):
    # 3 clients on an all-zero 2-layer matrix: every tour costs 0 s
    inst_path, matrix_path = tmp_path / "inst.json", tmp_path / "matrix.json"
    save_instance(grid_instance(4), inst_path)
    save_matrix(make_matrix(np.zeros((2, 4, 4), dtype=np.int64), 1800), matrix_path)
    return ["compare", "--instance", str(inst_path), "--matrix", str(matrix_path),
            "--seeds", "1", "--seed", "5", *FAST]


def test_compare_gap_is_zero_when_both_tours_are_free(tmp_path, capsys):
    assert main(_compare_on_zero_matrix(tmp_path)) == 0
    assert "+0.000%" in capsys.readouterr().out


def test_compare_refuses_a_gap_to_a_free_baseline(tmp_path, capsys, monkeypatch):
    # the layered tour costs 60 s while the averaged one costs 0 s: no percentage exists
    layered = SimpleNamespace(best_route=Route((1, 2, 3)), best_schedule=Schedule((0, 20, 40), 60))
    averaged = SimpleNamespace(best_route=Route((3, 2, 1)), best_schedule=Schedule((0, 0, 0), 0))
    monkeypatch.setattr(compare, "solve", lambda _, m, __: layered if m.n_layers == 2 else averaged)
    monkeypatch.setattr(compare, "evaluate_route", lambda route, _: averaged.best_schedule)
    assert main(_compare_on_zero_matrix(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: seed 5: the averaged tour costs 0 s")


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_needs_at_least_one_seed(seeds, small_setup, capsys):
    _, inst_path, _, matrix_path = small_setup
    rc = main(["compare", "--instance", str(inst_path), "--matrix", str(matrix_path),
               "--seeds", seeds, *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: n_seeds must be an integer in [1, 2**63), got {seeds}\n"


@pytest.mark.parametrize("n_seeds", [1.0, True])
def test_compare_seed_count_must_be_an_integer(n_seeds, small_setup):
    inst, _, matrix, _ = small_setup
    params = SolverParams(n_grasp=2, n_improve=1, l_delete=2)
    with pytest.raises(InputError) as info:
        compare.run_compare(inst, matrix, params, n_seeds)
    assert str(info.value) == f"n_seeds must be an integer in [1, 2**63), got {n_seeds!r}"


def test_solve_refuses_times_whose_tours_would_pass_64_bits(small_setup, tmp_path, capsys):
    # 5 arcs of 2**62 s: an int64 clock would wrap before the tour ends
    _, inst_path, _, _ = small_setup
    doc = json.loads(matrix_to_json(constant_matrix(5, 1, n_layers=2)))
    doc["times"] = [[[v * 2**62 for v in row] for row in layer] for layer in doc["times"]]
    matrix_path = tmp_path / "huge.json"
    matrix_path.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(inst_path), "--matrix", str(matrix_path), *FAST])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: travel times too large: 5 arcs of 4611686018427387904 s pass 2**63 s\n"
    )


@pytest.mark.parametrize(
    "flag, value",
    [("--base-speed", "nan"), ("--base-speed", "inf"), ("--peak", "0:1:nan"),
     ("--peak", "0:1:inf"), ("--jitter", "1:inf")],
)
def test_gen_matrix_rejects_profile_values_that_are_not_finite(flag, value, small_setup,
                                                                tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    out = tmp_path / "matrix-out.json"
    rc = main(["gen-matrix", "--instance", str(inst_path), "--layers", "2", flag, value,
               "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [("--base-speed", "1e-300", "base speed 1e-300"), ("--peak", "0:1:1e300", "multiplier 1e+300")],
)
def test_gen_matrix_rejects_travel_times_past_64_bits(flag, value, named, small_setup,
                                                      tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    out = tmp_path / "matrix-out.json"
    rc = main(["gen-matrix", "--instance", str(inst_path), "--layers", "2", flag, value,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "past 2**62 s" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, expected",
    [("--peak", "0:1", "START:END:MULT"), ("--peak", "a:1:2", "START:END:MULT"),
     ("--jitter", "0.9", "LO:HI"), ("--jitter", "0.9:x", "LO:HI")],
)
def test_gen_matrix_rejects_profile_flags_it_cannot_parse(flag, value, expected, small_setup,
                                                          tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    out = tmp_path / "matrix-out.json"
    rc = main(["gen-matrix", "--instance", str(inst_path), "--layers", "2", flag, value,
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: bad {flag} '{value}', expected {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["gen-instance", "gen-matrix", "fetch"])
def test_a_seed_outside_64_unsigned_bits_is_an_input_error(command, seed, small_setup,
                                                           tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    out = tmp_path / "out.json"
    argv = {
        "gen-instance": ["gen-instance", "--clients", "3"],
        "gen-matrix": ["gen-matrix", "--instance", str(inst_path), "--layers", "2"],
        "fetch": ["fetch", "--instance", str(inst_path), "--layers", "2",
                  "--backend", "synthetic"],
    }[command]
    assert main([*argv, "--seed", seed, "--out", str(out)]) == 2
    assert f"seed must be an integer in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # once an OverflowError traceback
        (["fetch", "--start-epoch", "99999999999999999999"],
         "start_epoch must be an integer in [0, 9223372036854739808), got 99999999999999999999"),
        # the layer-1 epoch once wrapped round, and the fetch ended in "missing entries"
        (["fetch", "--layers", "2", "--start-epoch", "9223372036854775000"],
         "start_epoch must be an integer in [0, 9223372036854768608), got 9223372036854775000"),
        (["fetch", "--layers", "3", "--step-seconds", str(2**62), "--start-epoch", "0"],
         f"step_seconds must be an integer in [1, {2**63 // 3}), got {2**62}"),
        # the file was once written, and solve on it crashed with an OverflowError
        (["gen-matrix", "--layers", "2", "--step-seconds", str(2**63)],
         f"step_seconds must be an integer in [1, 2**62), got {2**63}"),
    ],
    ids=["fetch-epoch-past-int64", "fetch-last-epoch-wraps", "fetch-horizon-wraps",
         "gen-matrix-horizon-wraps"],
)
def test_an_epoch_or_horizon_past_int64_is_an_input_error(argv, message, small_setup,
                                                           tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    out = tmp_path / "out.json"
    assert main([*argv, "--instance", str(inst_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_refuses_a_matrix_file_whose_horizon_passes_int64(small_setup, tmp_path, capsys):
    # once an OverflowError traceback from the arc walk
    _, inst_path, _, matrix_path = small_setup
    doc = json.loads(matrix_path.read_text())
    doc["step_seconds"] = 2**70
    matrix_path.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(inst_path), "--matrix", str(matrix_path), *FAST])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: step_seconds must be an integer in [1, {2**63 // 3}), got {2**70}\n"
    )


def test_fetch_synthetic_backend(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen-instance", "--clients", "4", "--seed", "2", "--out", str(inst_path)])
    out = tmp_path / "matrix.json"
    cache = tmp_path / "cache.jsonl"  # does not exist yet: the fetch creates it
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "synthetic",
        "--layers", "3", "--step-seconds", "3600", "--seed", "4",
        "--peak", "0:1:1.5", "--cache", str(cache), "--out", str(out),
    ])
    assert rc == 0
    assert len(cache.read_text().splitlines()) == 3 * 5 * 4
    stdout = capsys.readouterr().out
    assert "plan:" in stdout and "days needed" in stdout
    matrix = load_matrix(out)
    assert matrix.n_layers == 3


def test_fetch_recorded_backend_round_trip(tmp_path, rng, capsys):
    inst = grid_instance(4)
    inst_path = tmp_path / "inst.json"
    save_instance(inst, inst_path)
    source = make_matrix(random_layers(rng, 4, 2), 3600)

    # fixture uses the cache line format: one element per line
    start = 1_700_000_000
    fixture = tmp_path / "recorded.jsonl"
    with open(fixture, "w") as fh:
        for s in range(2):
            for o in range(4):
                for d in range(4):
                    if o != d:
                        rec = {"o": o, "d": d, "t": start + s * 3600,
                               "s": int(source.times[s, o, d])}
                        fh.write(json.dumps(rec) + "\n")

    out = tmp_path / "fetched.json"
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--recorded", str(fixture), "--layers", "2", "--step-seconds", "3600",
        "--start-epoch", str(start), "--out", str(out),
    ])
    assert rc == 0
    fetched = load_matrix(out)
    assert np.array_equal(fetched.times, source.times)


def test_fetch_over_a_complete_cache_does_not_open_the_recording(tmp_path, rng, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(grid_instance(4), inst_path)
    source = make_matrix(random_layers(rng, 4, 2), 3600)
    start = 1_700_000_000
    fixture = tmp_path / "recorded.jsonl"
    fixture.write_text("".join(
        json.dumps({"o": o, "d": d, "t": start + s * 3600, "s": int(source.times[s, o, d])}) + "\n"
        for s in range(2) for o in range(4) for d in range(4) if o != d
    ))
    cache = tmp_path / "cache.jsonl"

    def fetch(out):
        return main([
            "fetch", "--instance", str(inst_path), "--backend", "recorded",
            "--recorded", str(fixture), "--cache", str(cache), "--layers", "2",
            "--step-seconds", "3600", "--start-epoch", str(start), "--out", str(out),
        ])

    assert fetch(tmp_path / "first.json") == 0
    fixture.unlink()  # the recording is read only when a request must be sent
    cached = cache.read_bytes()
    assert fetch(tmp_path / "rerun.json") == 0
    assert (tmp_path / "rerun.json").read_bytes() == (tmp_path / "first.json").read_bytes()
    assert cache.read_bytes() == cached


def test_fetch_refuses_a_recorded_negative_time(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    save_instance(grid_instance(4), inst_path)
    start = 1_700_000_000
    fixture = tmp_path / "recorded.jsonl"
    fixture.write_text("".join(
        json.dumps({"o": o, "d": d, "t": start, "s": -40 if (o, d) == (0, 1) else 60}) + "\n"
        for o in range(4) for d in range(4) if o != d
    ))
    out = tmp_path / "got.json"
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--recorded", str(fixture), "--layers", "1", "--step-seconds", "3600",
        "--start-epoch", str(start), "--out", str(out),
    ])
    assert rc == 2
    assert "times[0][0][1] = -40" in capsys.readouterr().err
    assert not out.exists()


def test_fetch_recorded_missing_fixture_is_input_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen-instance", "--clients", "3", "--out", str(inst_path)])
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 2


def test_fetch_unreadable_recorded_fixture_is_input_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen-instance", "--clients", "3", "--out", str(inst_path)])
    out = tmp_path / "m.json"
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--recorded", str(tmp_path / "no-such-file.jsonl"), "--out", str(out),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "cannot read" in captured.err
    assert "quota usage" not in captured.out and not out.exists()


@pytest.mark.parametrize("option", ["--recorded", "--cache", "--matrix", "--instance", "--result"])
def test_file_that_is_not_utf8_is_an_input_error(option, small_setup, tmp_path, capsys):
    _, inst_path, _, matrix_path = small_setup
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'\xff{"o": 0, "d": 1, "t": 1700000000, "s": 60}\n')
    out = tmp_path / "out.json"
    argv = {
        "--recorded": ["fetch", "--instance", inst_path, "--layers", "1",
                       "--backend", "recorded", "--recorded", bad],
        "--cache": ["fetch", "--instance", inst_path, "--layers", "1", "--cache", bad],
        "--matrix": ["solve", "--instance", inst_path, "--matrix", bad, *FAST],
        "--instance": ["solve", "--instance", bad, "--matrix", matrix_path, *FAST],
        "--result": ["export-geojson", "--result", bad, "--instance", inst_path],
    }[option]
    assert main([str(arg) for arg in argv + ["--out", out]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and "can't decode byte 0xff" in err
    assert not out.exists()


def test_fetch_incomplete_recording_is_backend_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen-instance", "--clients", "3", "--out", str(inst_path)])
    fixture = tmp_path / "recorded.jsonl"
    fixture.write_text('{"o": 0, "d": 1, "t": 1700000000, "s": 60}\n')
    rc = main([
        "fetch", "--instance", str(inst_path), "--backend", "recorded",
        "--recorded", str(fixture), "--layers", "1", "--step-seconds", "3600",
        "--start-epoch", "1700000000", "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    assert "missing" in capsys.readouterr().err


def test_export_geojson_from_result(small_setup, tmp_path):
    _, inst_path, _, matrix_path = small_setup
    result_path = tmp_path / "result.json"
    main(["solve", "--instance", str(inst_path), "--matrix", str(matrix_path),
          "--seed", "1", *FAST, "--out", str(result_path)])
    geo_path = tmp_path / "tour.geojson"
    rc = main(["export-geojson", "--result", str(result_path),
               "--instance", str(inst_path), "--out", str(geo_path)])
    assert rc == 0
    geo = json.loads(geo_path.read_text())
    assert geo["type"] == "FeatureCollection"
    types = [f["geometry"]["type"] for f in geo["features"]]
    assert types.count("Point") == 5 and types.count("LineString") == 1


@pytest.mark.parametrize("case", ["missing result", "result without departures", "missing out dir"])
def test_file_errors_exit_with_input_error(case, small_setup, tmp_path, capsys):
    _, inst_path, _, matrix_path = small_setup
    result_path = tmp_path / "result.json"
    export = ["export-geojson", "--result", str(result_path), "--instance", str(inst_path),
              "--out", str(tmp_path / "tour.geojson")]
    if case == "missing result":
        argv, expected = export, "No such file"
    elif case == "result without departures":
        result_path.write_text(json.dumps({"route": [1, 2, 3, 4]}))
        argv, expected = export, "'departures_s'"
    else:
        out = tmp_path / "no-such-dir" / "out.json"
        assert main(["gen-instance", "--clients", "3", "--out", str(out)]) == 2
        argv = ["gen-matrix", "--instance", str(inst_path), "--out", str(out)]
        expected = "No such file"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err


@pytest.mark.parametrize(
    "doc, expected",
    [
        ({"route": "ab", "departures_s": [0, 1, 2]},
         """result field 'route' = "ab" is not a JSON list"""),
        # result_from_json checks only the shape; each entry meets one rule in
        # route_geojson, the tour rule or the departure rule
        ({"route": ["1", 2.9], "departures_s": [0, 1, 2]},
         "route node must be an integer in [1, 5), got '1'"),
        ({"route": [1, 2.9], "departures_s": [0, 1, 2]},
         "route node must be an integer in [1, 5), got 2.9"),
        ({"route": [1, True], "departures_s": [0, 1, 2]},
         "route node must be an integer in [1, 5), got True"),
        ({"route": [1, 2], "departures_s": [0, "60", 90]},
         "departures[1] must be a finite number >= 0, got '60'"),
        ({"route": [1, 2], "departures_s": None},
         "result field 'departures_s' = null is not a JSON list"),
        ({"route": [1, 1, 2], "departures_s": [0, 60, 120, 180]},
         "route [1, 1, 2] visits node 1 twice"),
        ({"route": [1, 2], "departures_s": [0, -5, 7]},
         "departures[1] must be a finite number >= 0, got -5"),
        ({"route": [1, 5], "departures_s": [0, 60, 120]},
         "route node must be an integer in [1, 5), got 5"),
    ],
)
def test_export_rejects_mistyped_result_fields(doc, expected, small_setup, tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    result_path = tmp_path / "result.json"
    result_path.write_text(json.dumps(doc))
    rc = main(["export-geojson", "--result", str(result_path), "--instance", str(inst_path),
               "--out", str(tmp_path / "tour.geojson")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_export_rejects_result_numbers_json_lacks(constant, small_setup, tmp_path, capsys):
    _, inst_path, _, _ = small_setup
    result_path = tmp_path / "result.json"
    result_path.write_text('{"route": [1], "departures_s": [0, %s]}' % constant)
    rc = main(["export-geojson", "--result", str(result_path), "--instance", str(inst_path),
               "--out", str(tmp_path / "tour.geojson")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: result is not valid JSON: {constant} is not a JSON number\n"


def test_matrix_files_round_trip_through_cli(small_setup, tmp_path):
    _, _, matrix, matrix_path = small_setup
    assert matrix_to_json(load_matrix(matrix_path)) == matrix_to_json(matrix)
