import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heegaard_lab import cli
from heegaard_lab.cli import main

S3 = '{"genus": 1, "red": [{"slope": [1, 0]}], "blue": [{"slope": [0, 1]}]}'
G3 = '{"levels": [[], [3], []]}'
WR1A = json.dumps({
    "type": "weak_reduction", "thick_index": 1,
    "D": {"side": "down", "target_genus": 3, "kind": "nonsep"},
    "E": {"side": "up", "target_genus": 3, "kind": "nonsep"},
    "F_DE": [1]})
ORACLE1 = json.dumps({"splittings": {"2": ["P", "Q"], "3": ["R"]},
                      "stabilize": {"P": "R", "Q": "R"}})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_s3(capsys, tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(S3)
    code, out, _ = run(capsys, "diagram", "classify",
                       "--diagram", str(f), "--cap", "12")
    assert code == 0
    data = json.loads(out)
    assert data["edge_witness"] == [[0, 1, 1], [1, 0, 1]]
    assert data["reducing_class"] is None


# Both disks cut the genus-2 thick level into two tori.
HALVES = {"target_genus": 2, "kind": ["sep", 1, 1]}
WR_SEP = json.dumps({
    "type": "weak_reduction", "thick_index": 1,
    "D": {"side": "down", **HALVES}, "E": {"side": "up", **HALVES},
    "F_DE": [1, 0]})


def test_ghs_reduce_example(capsys, tmp_path):
    g = tmp_path / "g.json"
    m = tmp_path / "move.json"
    for ghs, move, levels, key in (
            (G3, WR1A, [[], [2], [1], [2], []], [16, 16]),
            ('{"levels": [[], [2], []]}', WR_SEP,
             [[], [1, 1], [1], [1, 1], []], [8, 8])):
        g.write_text(ghs)
        m.write_text(move)
        code, out, _ = run(capsys, "ghs", "reduce", "--in", str(g),
                           "--move", str(m))
        assert code == 0
        data = json.loads(out)
        assert data["result"]["levels"] == levels
        assert data["key"] == key


def test_ghs_compare(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(G3)
    b.write_text('{"levels": [[], [2], [1], [2], []]}')
    code, out, _ = run(capsys, "ghs", "compare", str(a), str(b))
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "greater"
    assert data["key_a"] == [36] and data["key_b"] == [16, 16]


def test_sog_flatten_and_verify(capsys, tmp_path):
    o = tmp_path / "oracle.json"
    o.write_text(ORACLE1)
    code, out, _ = run(capsys, "sog", "flatten", "--start", "P",
                       "--end", "Q", "--oracle", str(o))
    assert code == 0
    data = json.loads(out)
    assert data["max_key"] == [[36]]
    assert data["single_maximal"] is True
    sogfile = tmp_path / "sog.json"
    sogfile.write_text(json.dumps(data["sog"]))
    code, out, _ = run(capsys, "sog", "verify", "--in", str(sogfile))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["maximal_positions"] == [1]


def test_sog_flatten_missing_ghs_file_reported(capsys, tmp_path):
    o = tmp_path / "oracle.json"
    o.write_text(ORACLE1)
    missing = tmp_path / "nope" / "missing_ghs.json"
    code, out, err = run(capsys, "sog", "flatten", "--start", str(missing),
                         "--end", "Q", "--oracle", str(o))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "No such file" in err and str(missing) in err
    assert "unknown splitting label" not in err


def test_sog_flatten_malformed_inline_ghs_reported(capsys, tmp_path):
    o = tmp_path / "oracle.json"
    o.write_text(ORACLE1)
    code, out, err = run(capsys, "sog", "flatten", "--start", "P",
                         "--end", '{"levels": [[], [3]', "--oracle", str(o))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert "delimiter" in err
    assert "unknown splitting label" not in err


def test_malformed_json_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("this is not json")
    code, _, err = run(capsys, "diagram", "classify",
                       "--diagram", str(f), "--cap", "12")
    assert code == 1
    assert "input error" in err


def test_unknown_fields_rejected(capsys, tmp_path):
    f = tmp_path / "d.json"
    f.write_text('{"genus": 1, "red": [{"slope": [1, 0]}], '
                 '"blue": [{"slope": [0, 1]}], "extra": 1}')
    code, _, err = run(capsys, "diagram", "classify",
                       "--diagram", str(f), "--cap", "12")
    assert code == 1
    assert "unknown fields" in err


def test_intersect_inline(capsys):
    code, out, _ = run(capsys, "intersect", "--a", '{"slope":[3,1]}',
                       "--b", '{"slope":[1,2]}')
    assert code == 0
    assert json.loads(out) == {"intersection": 5}


def test_gamma_emission_deterministic(capsys, tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(S3)
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "diagram", "gamma",
                           "--diagram", str(f), "--cap", "12")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    data = json.loads(out)
    assert len(data["vertices"]) == 2 and len(data["edges"]) == 1


def test_quotient_command(capsys, tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(S3)
    bij = tmp_path / "swap.json"
    bij.write_text(json.dumps([
        [{"slope": [1, 0]}, {"slope": [0, 1]}],
        [{"slope": [0, 1]}, {"slope": [1, 0]}]]))
    code, out, _ = run(capsys, "diagram", "quotient", "--diagram", str(f),
                       "--cap", "12", "--bijection", str(bij))
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 1
    assert data["edges"] == [{"u": 0, "v": 0, "i": 1}]


def test_quotient_without_bijection_is_input_error(capsys):
    code, out, err = run(capsys, "diagram", "quotient", "--diagram", S3,
                         "--cap", "12")
    assert code == 1 and out == ""
    assert err == "input error: diagram quotient needs --bijection\n"


def test_distance_command(capsys, tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(S3)
    edge = '[{"slope":[1,0]},{"slope":[0,1]}]'
    code, out, _ = run(capsys, "distance", "--diagram", str(f),
                       "--edge1", edge, "--edge2", edge, "--cap", "12")
    assert code == 0
    assert json.loads(out)["distance"] == 0


def test_dot_output(capsys, tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(S3)
    code, out, _ = run(capsys, "--format", "dot", "diagram", "gamma",
                       "--diagram", str(f), "--cap", "12")
    assert code == 0
    assert out.startswith("graph complex {")
    assert out.count(" -- ") == 1


def test_proptest_reproducible(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "proptest", "--seed", "0",
                           "--iterations", "25")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    data = json.loads(runs[0])
    assert all(r["passed"] for r in data["results"])


def test_proptest_zero_iterations_vacuous(capsys):
    code, out, _ = run(capsys, "proptest", "--seed", "0", "--iterations", "0")
    assert code == 0
    data = json.loads(out)
    assert all(r["passed"] for r in data["results"])


def test_surface_curves_command(capsys):
    code, out, _ = run(capsys, "surface", "curves", "--genus", "1",
                       "--cap", "4")
    assert code == 0
    data = json.loads(out)
    assert {"slope": [1, 0]} in data["curves"]
    assert data["complete"] is True


@pytest.mark.parametrize("genus", ["0", "-2"])
def test_surface_curves_nonpositive_genus_named(capsys, genus):
    code, out, err = run(capsys, "surface", "curves", "--genus", genus,
                         "--cap", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"surface of genus {genus};" in err


def test_budget_exit_2(capsys):
    code, out, _ = run(capsys, "surface", "curves", "--genus", "2",
                       "--cap", "8", "--budget", "5")
    assert code == 2
    assert json.loads(out)["complete"] is False


def test_torus_budget_scopes_the_slope_scan(capsys):
    # Each slope visited counts against the budget, as vectors do at
    # genus >= 2, so a small budget ends the scan at once.
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "surface", "curves", "--genus", "1",
                       "--cap", "1000", "--budget", "5")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    data = json.loads(out)
    assert data["complete"] is False and len(data["curves"]) == 5


def test_torus_budget_at_least_the_slope_count_changes_nothing(capsys):
    code, out, _ = run(capsys, "surface", "curves", "--genus", "1",
                       "--cap", "40")
    assert code == 0
    count = len(json.loads(out)["curves"])
    for budget in (count, count + 1):
        assert run(capsys, "surface", "curves", "--genus", "1", "--cap",
                   "40", "--budget", str(budget)) == (0, out, "")
    code, _, _ = run(capsys, "surface", "curves", "--genus", "1", "--cap",
                     "40", "--budget", str(count - 1))
    assert code == 2


def test_enumeration_at_genus_200(capsys):
    # 1,197 edges, more than Python's default recursion limit.
    code, out, _ = run(capsys, "surface", "curves", "--genus", "200",
                       "--cap", "1")
    assert code == 0
    assert json.loads(out) == {"cap": 1, "complete": True, "curves": [],
                               "genus": 200}


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text("[" * 50000 + "]" * 50000)
    code, out, err = run(capsys, "intersect", "--a", str(f), "--b",
                         '{"slope": [1, 0]}')
    assert code == 1 and out == ""
    assert err == "input error: JSON is nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["surface", "curves", "--genus", "1", "--cap", "x"],
    ["diagram", "gamma", "--diagram", S3, "--cap", "0"],
    ["diagram", "gamma", "--diagram", S3, "--cap", "12", "--budget", "0"],
    ["sog", "flatten", "--start", "P", "--end", "Q", "--oracle", ORACLE1,
     "--budget", "0"],
    ["proptest", "--seed", "0", "--iterations", "-5"],
    ["frobnicate"],
])
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("input error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "--help"])
    assert exc.value.code == 0
    assert "--cap" in capsys.readouterr().out


CURVE = '{"slope": [1, 0]}'
WR1A_BAD_F = json.dumps(dict(json.loads(WR1A), F_DE=5))


def flatten_with(oracle):
    return ["sog", "flatten", "--start", "P", "--end", "Q", "--oracle", oracle]


@pytest.mark.parametrize("argv", [
    ["intersect", "--a", '{"slope": 5}', "--b", CURVE],
    ["intersect", "--a", '{"genus": 2, "coords": 5}', "--b", CURVE],
    ["intersect", "--a", '{"genus": 2, "coords": [0, 0, 0, 0, 0, 0, 0, 0, null]}',
     "--b", CURVE],
    ["intersect", "--a", '{"genus": [2], "coords": [1]}', "--b", CURVE],
    ["intersect", "--a", ".", "--b", CURVE],
    ["diagram", "gamma", "--cap", "2", "--diagram",
     '{"genus": 1, "red": 5, "blue": [{"slope": [0, 1]}]}'],
    ["diagram", "gamma", "--cap", "2", "--diagram",
     '{"genus": 1, "red": [5], "blue": [{"slope": [0, 1]}]}'],
    ["diagram", "quotient", "--diagram", S3, "--cap", "2",
     "--bijection", '[[{"slope": [1, 0]}]]'],
    ["ghs", "compare", '{"levels": 5}', G3],
    ["ghs", "compare", '{"levels": [5]}', G3],
    ["ghs", "compare", '{"levels": [[], [null], []]}', G3],
    ["ghs", "reduce", "--in", G3, "--move", WR1A_BAD_F],
    flatten_with('{"splittings": 5, "stabilize": {}}'),
    flatten_with('{"splittings": {"2": 5}, "stabilize": {}}'),
    flatten_with('{"splittings": {"2": ["P", "Q"]}, "stabilize": 5}'),
    ["sog", "verify", "--in", '{"ghss": 5, "steps": []}'],
    ["sog", "verify", "--in", json.dumps(
        {"ghss": [json.loads(G3)], "steps": [], "labels": 5})],
    ["sog", "verify", "--in", json.dumps(
        {"ghss": [json.loads(G3)], "steps": [], "labels": [5]})],
])
def test_wrong_json_shapes_exit_1_with_one_line(capsys, argv):
    # Each input is valid JSON of the wrong shape (or a path that is not a
    # file); none may end in a traceback.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("input error: ")


def test_oracle_edge_that_is_not_a_move_exits_1(capsys):
    bad = json.dumps({"splittings": {"1": ["a"], "2": ["b"]},
                      "stabilize": {"a": "b"}, "boundary": [[1], []]})
    assert run(capsys, "sog", "flatten", "--start", "b", "--end", "a",
               "--oracle", bad) == \
        (1, "", "input error: stabilize(a) = b is not a move: "
                "case 2b would delete the lower boundary\n")


def test_oracle_label_with_a_line_break_gives_one_line(capsys):
    bad = json.dumps({"splittings": {"2": ["P", "Q"]},
                      "stabilize": {"a\nb": "P"}})
    assert run(capsys, "sog", "flatten", "--start", "P", "--end", "Q",
               "--oracle", bad) == \
        (1, "", "input error: label 'a\\nb' is not printable\n")


def test_oracle_genus_key_parsed_once(capsys):
    bad = '{"splittings": {"x": ["P"], "3": ["Q"]}, "stabilize": {"P": "Q"}}'
    code, out, err = run(capsys, "sog", "flatten", "--start", "P", "--end", "Q",
                         "--oracle", bad)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert "'x'" in err
    twice = '{"splittings": {"2": ["P"], "02": ["Q"]}, "stabilize": {}}'
    assert run(capsys, *flatten_with(twice)) == \
        (1, "", "input error: splittings key '02' repeats genus 2\n")
    # Keys that int() reads, padded or signed, still name a genus.
    padded = ORACLE1.replace('"2"', '" +2"').replace('"3"', '"03"')
    assert run(capsys, *flatten_with(padded)) == \
        run(capsys, *flatten_with(ORACLE1))


@pytest.mark.parametrize("edge, problem", [
    ("5", "must be a list, got 5"),
    (f"[{CURVE}]", "needs 2 curves, got 1"),
    (f"[{CURVE}, {CURVE}, {CURVE}]", "needs 2 curves, got 3"),
])
def test_distance_edge_is_two_curves(capsys, tmp_path, edge, problem):
    f = tmp_path / "edge.json"
    f.write_text(edge)
    good = '[{"slope": [1, 0]}, {"slope": [0, 1]}]'
    assert run(capsys, "distance", "--diagram", S3, "--edge1", str(f),
               "--edge2", good, "--cap", "12") == \
        (1, "", f"input error: an edge {problem}\n")


def test_shape_errors_clip_the_echoed_value(capsys, tmp_path):
    f = tmp_path / "long.json"
    f.write_text(json.dumps(list(range(100000))))
    code, out, err = run(capsys, "intersect", "--a", str(f), "--b", CURVE)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 300
    # A short value is echoed whole.
    assert run(capsys, "intersect", "--a", '{"slope": "x"}', "--b", CURVE) \
        == (1, "", 'input error: slope must be a list, got "x"\n')


def test_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    run(capsys, "intersect", "--a", CURVE, "--b", CURVE)
    run(capsys, "intersect", "--a", CURVE, "--b", CURVE)
    assert cli._parser.cache_info().misses == 1


def test_key_errors_print_their_message(capsys):
    # A KeyError's str() quotes its message; the CLI prints it bare.
    not_one = '[{"slope": [1, 1]}, {"slope": [1, 0]}]'
    good = '[{"slope": [1, 0]}, {"slope": [0, 1]}]'
    assert run(capsys, "distance", "--diagram", S3, "--edge1", not_one,
               "--edge2", good, "--cap", "12") == \
        (1, "", "input error: ((0, 1, 1), (1, 1, 0)) is not an i=1 edge "
                "of the capped complex\n")
    assert run(capsys, "sog", "flatten", "--start", '{"levels": [[], [5], []]}',
               "--end", "Q", "--oracle", ORACLE1) == \
        (1, "", "input error: GHS (-) [5] (-) matches 0 inventory labels; "
                "pass the label itself\n")


def test_sog_flatten_unknown_label_reported_as_label(capsys, tmp_path):
    assert run(capsys, "sog", "flatten", "--start", "X", "--end", "Q",
               "--oracle", ORACLE1) == \
        (1, "", "input error: unknown splitting label 'X'\n")
    # R is the one genus-3 label, so its GHS names it, inline or in a file.
    by_label = run(capsys, "sog", "flatten", "--start", "R", "--end", "Q",
                   "--oracle", ORACLE1)
    assert by_label[0] == 0
    r_file = tmp_path / "r"
    r_file.write_text('{"levels": [[], [3], []]}')
    for start in ('{"levels": [[], [3], []]}', str(r_file)):
        assert run(capsys, "sog", "flatten", "--start", start, "--end", "Q",
                   "--oracle", ORACLE1) == by_label


def test_internal_error_exit_3(capsys, monkeypatch):
    from heegaard_lab import arrangement

    def broken(arr):
        raise AssertionError("slide changed crossings 3 -> 3")
    monkeypatch.setattr(arrangement, "minimize", broken)
    a1 = '{"genus": 2, "coords": [0, 1, 0, 0, 1, 1, 0, 0, 0]}'
    b1 = '{"genus": 2, "coords": [2, 1, 0, 0, 1, 1, 0, 0, 0]}'
    assert run(capsys, "intersect", "--a", a1, "--b", b1) == \
        (3, "",
         "internal error: slide changed crossings 3 -> 3\n")


def test_move_that_changes_the_boundary_is_an_internal_error(
        capsys, monkeypatch):
    # The move rule never cancels into a boundary collection; were it to,
    # the boundary check reports a bug (exit 3) and does not blame the input.
    from heegaard_lab import ghs

    def rewrites_boundary(g, t, zigzag, remove="right"):
        return [(1,), *zigzag, *g.levels[t + 1:]], "1a"
    monkeypatch.setattr(ghs, "_cancel", rewrites_boundary)
    assert run(capsys, "ghs", "reduce", "--in", G3, "--move", WR1A) == \
        (3, "", "internal error: move changed the boundary: "
                "GHS (-) [3] (-) -> GHS (1) [2] (1) [2] (-)\n")


# `diagram classify --cap 8`, byte for byte, in JSON and in text, on the
# standard genus-2 diagram, the critical-witness diagram, L(5, 2) and
# S^2 x S^1.
CLASSIFY_DIAGRAMS = {
    "standard":
        '{"genus":2,"red":[{"genus":2,"coords":[0,1,0,0,1,1,0,0,0]},'
        '{"genus":2,"coords":[0,0,0,1,0,0,0,0,1]}],"blue":[{"genus":2,'
        '"coords":[1,0,0,0,1,0,0,0,0]},{"genus":2,"coords":[0,0,1,0,0,0,0,'
        '1,1]}]}',
    "critical":
        '{"genus":2,"red":[{"genus":2,"coords":[0,1,0,0,1,1,0,0,0]},'
        '{"genus":2,"coords":[0,0,0,1,0,0,0,0,1]}],"blue":[{"genus":2,'
        '"coords":[1,0,2,1,1,2,2,2,1]},{"genus":2,"coords":[2,1,1,1,1,1,2,'
        '1,0]}]}',
    "lens":
        '{"genus":1,"red":[{"slope":[1,0]}],"blue":[{"slope":[2,5]}]}',
    "s2xs1":
        '{"genus":1,"red":[{"slope":[1,0]}],"blue":[{"slope":[1,0]}]}',
}

CLASSIFY_JSON = {
    "standard":
        '{"blue_witness":{"coords":[0,0,1,0,0,0,0,1,1],"genus":2},'
        '"certified":true,"critical_witness":null,"edge_witness":[[0,0,0,1,'
        '0,0,0,0,1],[0,0,1,0,0,0,0,1,1]],"has_blue_disk":true,'
        '"has_red_disk":true,"negative_claims_cap":8,'
        '"red_witness":{"coords":[0,0,0,1,0,0,0,0,1],"genus":2},'
        '"reducing_class":{"coords":[0,0,2,2,0,0,0,2,2],"genus":2},'
        '"summary":"reducible: (0, 0, 2, 2, 0, 0, 0, 2, 2) bounds on both '
        'sides"}\n',
    "critical":
        '{"blue_witness":{"coords":[1,0,2,1,1,2,2,2,1],"genus":2},'
        '"certified":true,"critical_witness":[[[0,0,0,1,0,0,0,0,1],[2,1,1,'
        '1,1,1,2,1,0]],[[0,1,0,0,1,1,0,0,0],[1,0,2,1,1,2,2,2,1]],0,2],'
        '"edge_witness":[[0,0,0,1,0,0,0,0,1],[2,1,1,1,1,1,2,1,0]],'
        '"has_blue_disk":true,"has_red_disk":true,"negative_claims_cap":8,'
        '"red_witness":{"coords":[0,0,0,1,0,0,0,0,1],"genus":2},'
        '"reducing_class":null,"summary":"critical within cap 8: edges ((0,'
        ' 0, 0, 1, 0, 0, 0, 0, 1), (2, 1, 1, 1, 1, 1, 2, 1, 0)) and ((0, 1,'
        ' 0, 0, 1, 1, 0, 0, 0), (1, 0, 2, 1, 1, 2, 2, 2, 1)) lie in '
        'components 0 and 2"}\n',
    "lens":
        '{"blue_witness":{"slope":[2,5]},"certified":true,'
        '"critical_witness":null,"edge_witness":null,"has_blue_disk":true,'
        '"has_red_disk":true,"negative_claims_cap":8,'
        '"red_witness":{"slope":[1,0]},"reducing_class":null,'
        '"summary":"strongly irreducible within cap 8: disks on both sides,'
        ' no edges"}\n',
    "s2xs1":
        '{"blue_witness":{"slope":[1,0]},"certified":true,'
        '"critical_witness":null,"edge_witness":[[0,1,1],[0,1,1]],'
        '"has_blue_disk":true,"has_red_disk":true,"negative_claims_cap":8,'
        '"red_witness":{"slope":[1,0]},"reducing_class":{"slope":[1,0]},'
        '"summary":"reducible: (0, 1, 1) bounds on both sides"}\n',
}

CLASSIFY_TEXT = {
    "standard": [
        "blue_witness: {'genus': 2, 'coords': [0, 0, 1, 0, 0, 0, 0, 1, 1]}",
        'certified: True',
        'critical_witness: None',
        'edge_witness: [[0, 0, 0, 1, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0, 0, '
        '1, 1]]',
        'has_blue_disk: True',
        'has_red_disk: True',
        'negative_claims_cap: 8',
        "red_witness: {'genus': 2, 'coords': [0, 0, 0, 1, 0, 0, 0, 0, 1]}",
        "reducing_class: {'genus': 2, 'coords': [0, 0, 2, 2, 0, 0, 0, 2, 2]}",
        'summary: reducible: (0, 0, 2, 2, 0, 0, 0, 2, 2) bounds on both sides',
    ],
    "critical": [
        "blue_witness: {'genus': 2, 'coords': [1, 0, 2, 1, 1, 2, 2, 2, 1]}",
        'certified: True',
        'critical_witness: [[[0, 0, 0, 1, 0, 0, 0, 0, 1], [2, 1, 1, 1, 1, '
        '1, 2, 1, 0]], [[0, 1, 0, 0, 1, 1, 0, 0, 0], [1, 0, 2, 1, 1, 2, 2, '
        '2, 1]], 0, 2]',
        'edge_witness: [[0, 0, 0, 1, 0, 0, 0, 0, 1], [2, 1, 1, 1, 1, 1, 2, '
        '1, 0]]',
        'has_blue_disk: True',
        'has_red_disk: True',
        'negative_claims_cap: 8',
        "red_witness: {'genus': 2, 'coords': [0, 0, 0, 1, 0, 0, 0, 0, 1]}",
        'reducing_class: None',
        'summary: critical within cap 8: edges ((0, 0, 0, 1, 0, 0, 0, 0, '
        '1), (2, 1, 1, 1, 1, 1, 2, 1, 0)) and ((0, 1, 0, 0, 1, 1, 0, 0, 0),'
        ' (1, 0, 2, 1, 1, 2, 2, 2, 1)) lie in components 0 and 2',
    ],
    "lens": [
        "blue_witness: {'slope': [2, 5]}",
        'certified: True',
        'critical_witness: None',
        'edge_witness: None',
        'has_blue_disk: True',
        'has_red_disk: True',
        'negative_claims_cap: 8',
        "red_witness: {'slope': [1, 0]}",
        'reducing_class: None',
        'summary: strongly irreducible within cap 8: disks on both sides, '
        'no edges',
    ],
    "s2xs1": [
        "blue_witness: {'slope': [1, 0]}",
        'certified: True',
        'critical_witness: None',
        'edge_witness: [[0, 1, 1], [0, 1, 1]]',
        'has_blue_disk: True',
        'has_red_disk: True',
        'negative_claims_cap: 8',
        "red_witness: {'slope': [1, 0]}",
        "reducing_class: {'slope': [1, 0]}",
        'summary: reducible: (0, 1, 1) bounds on both sides',
    ],
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_DIAGRAMS))
def test_classify_payload_golden(capsys, name):
    from heegaard_lab import serialize
    from heegaard_lab.handlebody import lens_space, s2_x_s1, standard_diagram
    from test_disk_complex import critical_witness_diagram
    built = {"standard": lambda: standard_diagram(2),
             "critical": critical_witness_diagram,
             "lens": lambda: lens_space(5, 2), "s2xs1": s2_x_s1}[name]()
    diagram = CLASSIFY_DIAGRAMS[name]
    assert serialize.diagram_from_jsonable(json.loads(diagram)) == built
    argv = ("diagram", "classify", "--diagram", diagram, "--cap", "8")
    assert run(capsys, *argv) == (0, CLASSIFY_JSON[name], "")
    text = "".join(line + "\n" for line in CLASSIFY_TEXT[name])
    assert run(capsys, "--format", "text", *argv) == (0, text, "")


# One curve table per genus serves every job of a process.  Each job's
# stdout and exit code must equal the same job's on a fresh table, whatever
# ran before it: caps above and below a stored list, and budgets that end
# scoped before and after the same cap ran without one.
TWISTED = CLASSIFY_DIAGRAMS["critical"]         # the diagram of demos/05
TWISTED_EDGES = (
    '[{"genus":2,"coords":[0,0,0,1,0,0,0,0,1]},'
    '{"genus":2,"coords":[2,1,1,1,1,1,2,1,0]}]',
    '[{"genus":2,"coords":[0,1,0,0,1,1,0,0,0]},'
    '{"genus":2,"coords":[1,0,2,1,1,2,2,2,1]}]')
HEAVY = ('{"genus":2,"red":[{"genus":2,"coords":[0,1,0,0,1,1,0,0,0]},'
         '{"genus":2,"coords":[0,0,0,1,0,0,0,0,1]}],"blue":[{"genus":2,'
         '"coords":[0,1,0,1,1,1,2,2,1]},{"genus":2,"coords":[0,0,0,1,0,0,0,'
         '0,1]}]}')


def _diagram_job(action, diagram, cap, *extra):
    return ("diagram", action, "--diagram", diagram, "--cap", str(cap),
            *extra)


SESSION = [
    (_diagram_job("gamma", TWISTED, 8, "--budget", "40"), 2),
    (_diagram_job("lambda", TWISTED, 10), 0),
    (_diagram_job("gamma", TWISTED, 8), 0),
    (_diagram_job("classify", TWISTED, 8), 0),
    (_diagram_job("lambda", TWISTED, 8), 0),
    (_diagram_job("classify", TWISTED, 8, "--budget", "40"), 2),
    (_diagram_job("lambda", TWISTED, 10, "--budget", "40"), 2),
    (("distance", "--diagram", TWISTED, "--edge1", TWISTED_EDGES[0],
      "--edge2", TWISTED_EDGES[1], "--cap", "8"), 0),
    (_diagram_job("gamma", CLASSIFY_DIAGRAMS["standard"], 8), 0),
    (_diagram_job("classify", CLASSIFY_DIAGRAMS["standard"], 8), 0),
    (_diagram_job("lambda", CLASSIFY_DIAGRAMS["standard"], 6), 0),
    (_diagram_job("lambda", CLASSIFY_DIAGRAMS["lens"], 30), 0),
    (_diagram_job("gamma", CLASSIFY_DIAGRAMS["lens"], 12), 0),
    (_diagram_job("classify", CLASSIFY_DIAGRAMS["lens"], 12), 0),
    (_diagram_job("lambda", CLASSIFY_DIAGRAMS["lens"], 12, "--budget", "5"),
     2),
    (_diagram_job("gamma", TWISTED, 8, "--budget", "40"), 2),
]


def _run_session(capsys):
    """Each SESSION job, in order, on one warm table per genus."""
    cli._session_table.cache_clear()
    return [run(capsys, *argv) for argv, _ in SESSION]


def test_session_table_outputs_match_fresh_tables(capsys):
    in_session = _run_session(capsys)
    assert [code for code, _, _ in in_session] == [c for _, c in SESSION]
    for (argv, _), got in zip(SESSION, in_session):
        cli._session_table.cache_clear()
        assert run(capsys, *argv) == got, argv


def test_session_table_removes_repeated_work(capsys, monkeypatch):
    from heegaard_lab import arrangement, disk_complex
    enumerated, built = [], []
    enumerate_curves = disk_complex.enumerate_essential_curves
    init = arrangement.Arrangement.__init__

    def counting_enumeration(*args):
        enumerated.append(args)
        return enumerate_curves(*args)

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(disk_complex, "enumerate_essential_curves",
                        counting_enumeration)
    monkeypatch.setattr(arrangement.Arrangement, "__init__", counting_init)

    cli._session_table.cache_clear()
    for diagram in (TWISTED, CLASSIFY_DIAGRAMS["standard"], HEAVY):
        assert run(capsys, *_diagram_job("gamma", diagram, 8))[0] == 0
    assert enumerated == [(2, 8, None)]

    cli._session_table.cache_clear()
    run(capsys, *_diagram_job("lambda", TWISTED, 10))
    enumerated.clear()
    assert run(capsys, *_diagram_job("lambda", TWISTED, 8))[0] == 0
    assert enumerated == []

    cli._session_table.cache_clear()
    first = run(capsys, *_diagram_job("lambda", TWISTED, 8))
    built.clear()
    assert run(capsys, *_diagram_job("lambda", TWISTED, 8)) == first
    assert built == []


def test_session_table_stores_stay_within_bounds(capsys, monkeypatch):
    from heegaard_lab import disk_complex
    unbounded = _run_session(capsys)
    bounds = {"MAX_STORED_CLASSES": (30, "_classes"),
              "MAX_STORED_PAIRS": (50, "_meets"),
              "MAX_STORED_DISK_TESTS": (10, "_disks")}
    for name, (bound, *_) in bounds.items():
        monkeypatch.setattr(disk_complex, name, bound)
    cli._session_table.cache_clear()
    for (argv, _), want in zip(SESSION, unbounded):
        assert run(capsys, *argv) == want, argv
        for genus in (1, 2):
            table = cli._session_table(genus)
            for bound, *stores in bounds.values():
                for store in stores:
                    assert len(getattr(table, store)) <= bound, store
    # The genus-2 pair and disk stores filled up.  The cap-10 list of 52
    # classes was never stored; the cap-8 list of 25 was.
    table = cli._session_table(2)
    assert [len(table._meets), len(table._disks)] == [50, 10]
    assert table._cap == 8 and len(table._classes) == 25


def test_long_key_of_a_valid_ghs_is_printed(capsys):
    # The key (2g)^2 of a genus of 4,001 digits has 8,001 digits, more than
    # the interpreter prints by default; the input parsed, so the run ends
    # in a result, and the digit limit still holds for the next input.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = '{"levels": [[], [1' + "0" * 4000 + '], []]}'
    code, out, err = run(capsys, "ghs", "compare", big, G3)
    assert (code, err) == (0, "")
    assert out.count("4" + "0" * 8000) == 1
    code, out, err = run(capsys, "--format", "text", "ghs", "compare", big, G3)
    assert code == 0 and "key_a: [4" + "0" * 8000 + "]\n" in out
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    if limit:
        too_long = '{"levels": [[], [1' + "0" * 4999 + '], []]}'
        code, out, err = run(capsys, "ghs", "compare", too_long, G3)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(
            "input error: Exceeds the limit")


def test_long_endpoint_reads_as_a_label(capsys):
    # Text too long to be a file name is still a label, not a path error.
    label = "x" * 300
    assert run(capsys, "sog", "flatten", "--start", label, "--end", "Q",
               "--oracle", ORACLE1) == \
        (1, "", f"input error: unknown splitting label {label!r}\n")


def test_every_read_failure_is_one_input_error(capsys, tmp_path):
    (tmp_path / "latin1").write_bytes(b"\xff")
    for argument, message in [
        (str(tmp_path), f"[Errno 21] Is a directory: '{tmp_path}'"),
        (str(tmp_path / "missing"),
         f"[Errno 2] No such file or directory: '{tmp_path / 'missing'}'"),
        (str(tmp_path / "latin1"),
         "'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        ("a\0b", "embedded null byte"),
        ("[1, 2", "Expecting ',' delimiter: line 1 column 6 (char 5)"),
    ]:
        assert run(capsys, "intersect", "--a", argument, "--b", CURVE) == \
            (1, "", f"input error: {message}\n")


@pytest.mark.parametrize("error", [KeyError, ValueError, TypeError,
                                   RecursionError])
def test_engine_errors_are_internal_not_input(capsys, monkeypatch, error):
    # Only an InputError is the user's fault: any other exception the
    # engine raises is a bug, even one of a type bad input used to raise.
    def broken(a, b):
        raise error("boom")
    monkeypatch.setattr(cli, "geometric_intersection", broken)
    assert run(capsys, "intersect", "--a", CURVE, "--b", CURVE) == \
        (3, "", f"internal error: {error('boom')}\n")


def test_exit_status_of_the_process():
    # The codes `main` returns are the process's exit status.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, status, stderr in [
        (["intersect", "--a", CURVE, "--b", '{"slope": [0, 1]}'], 0, ""),
        (["intersect", "--a", '{"slope": [2, 4]}', "--b", CURVE], 1,
         "input error: slope (2,4) is not coprime\n"),
        (["surface", "curves", "--genus", "2", "--cap", "8", "--budget",
          "5"], 2, ""),
    ]:
        done = subprocess.run([sys.executable, "-m", "heegaard_lab", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stderr) == (status, stderr), argv


# -- fuzzing every JSON argument ----------------------------------------------
#
# Each strategy mixes values that are valid, values of the right shape with
# wrong contents, and arbitrary JSON.  Genera, weights and caps stay small
# so that the whole fuzz runs in seconds: bounding memory and time on huge
# weights is still open (ROADMAP item 8), and this test does not cover it.

EDGE = '[{"slope": [1, 0]}, {"slope": [0, 1]}]'
BIJECTION = ('[[{"slope": [1, 0]}, {"slope": [0, 1]}], '
             '[{"slope": [0, 1]}, {"slope": [1, 0]}]]')


SMALL = st.integers(-2, 4)
TEXT = st.text(alphabet="PQRX2 \n'\"", max_size=3) | st.sampled_from(
    ["nonsep", "sep", "down", "up", "left", "right", "weak_reduction",
     "destabilization", "slope", "genus", "coords", "levels"])
ANY = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8)


def _obj(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


def _mix(valid, *shaped):
    """Valid values, values of the right shape, and arbitrary JSON."""
    return st.one_of(st.sampled_from(valid), *shaped, ANY)


SLOPE = _obj({"slope": st.lists(SMALL, min_size=2, max_size=2)})
CURVE_JSON = _mix(
    [{"slope": [1, 0]}, {"slope": [0, 1]}, {"slope": [2, 5]},
     {"genus": 2, "coords": [0, 1, 0, 0, 1, 1, 0, 0, 0]},
     {"genus": 2, "coords": [1, 0, 0, 0, 1, 0, 0, 0, 0]}],
    SLOPE, _obj({"slope": st.lists(SMALL, max_size=3)}),
    _obj({"genus": st.integers(-1, 2),
          "coords": st.sampled_from([3, 9, 4]).flatmap(
              lambda n: st.lists(st.integers(-1, 3), min_size=n,
                                 max_size=n))}))
DIAGRAM_JSON = _mix(
    [json.loads(S3)] + [json.loads(d) for d in CLASSIFY_DIAGRAMS.values()],
    _obj({"genus": st.just(1), "red": st.lists(SLOPE, min_size=1,
                                               max_size=1),
          "blue": st.lists(SLOPE, min_size=1, max_size=1)}),
    _obj({"genus": st.integers(-1, 2),
          "red": st.lists(CURVE_JSON, max_size=2),
          "blue": st.lists(CURVE_JSON, max_size=2)}))
EDGE_JSON = _mix([json.loads(EDGE)], st.lists(CURVE_JSON, max_size=3))
BIJECTION_JSON = _mix([json.loads(BIJECTION)],
                      st.lists(EDGE_JSON, max_size=3))
COLLECTION = st.lists(st.integers(-1, 4), max_size=3)
GENERA = st.lists(st.integers(1, 4), min_size=1, max_size=2)
BOUNDARY = st.lists(st.integers(0, 2), max_size=1)
# A lower boundary, (thick, thin) pairs, the last thick level and an upper
# boundary: the shape of a GHS, not always a valid one.
LEVELS = st.tuples(BOUNDARY, st.lists(st.tuples(GENERA, GENERA), max_size=2),
                   GENERA, BOUNDARY).map(
    lambda t: [t[0], *[level for pair in t[1] for level in pair], t[2], t[3]])
GHS_JSON = _mix(
    [{"levels": [[], [3], []]}, {"levels": [[], [2], []]},
     {"levels": [[], [2], [1], [2], []]}],
    _obj({"levels": LEVELS}),
    _obj({"levels": st.lists(COLLECTION, max_size=5)}, {"boundary": ANY}))
DESCRIPTOR_JSON = _mix(
    [{"side": "down", "target_genus": 3, "kind": "nonsep"}],
    _obj({"side": st.sampled_from(["down", "up", "red"]),
          "target_genus": SMALL,
          "kind": st.just("nonsep") | ANY
          | st.tuples(st.just("sep"), SMALL, SMALL).map(list)}))
MOVE_JSON = _mix(
    [json.loads(WR1A), json.loads(WR_SEP)],
    _obj({"type": st.just("weak_reduction"), "thick_index": SMALL,
          "D": DESCRIPTOR_JSON, "E": DESCRIPTOR_JSON, "F_DE": COLLECTION}),
    _obj({"type": st.just("destabilization"), "thick_index": SMALL,
          "target_genus": SMALL},
         {"remove": st.sampled_from(["left", "right", "up"])}))
LABEL = st.sampled_from(["P", "Q", "R", "S", "X"])
# Oracle labels may also hold a line break or a quote.
ORACLE_LABEL = LABEL | TEXT
ORACLE_JSON = _mix(
    [json.loads(ORACLE1)],
    _obj({"splittings": st.dictionaries(
              st.sampled_from(["1", "2", "3", "02", "x", "-1"]),
              st.lists(ORACLE_LABEL, max_size=3), max_size=3),
          "stabilize": st.dictionaries(ORACLE_LABEL, ORACLE_LABEL,
                                       max_size=3)},
         {"boundary": st.lists(COLLECTION, max_size=3)}))
SOG_JSON = _mix(
    [{"ghss": [{"levels": [[], [2], []]}, {"levels": [[], [3], []]},
               {"levels": [[], [2], []]}],
      "labels": ["P", "R", "Q"],
      "steps": [{"src": 1, "move": {"type": "destabilization",
                                    "thick_index": 1,
                                    "target_genus": 3}}] * 2}],
    _obj({"ghss": st.lists(GHS_JSON, max_size=3),
          "steps": st.lists(_obj({"src": SMALL, "move": MOVE_JSON}),
                            max_size=2)},
         {"labels": st.lists(TEXT, max_size=3)}))


def _as_argument(values):
    """JSON text of each value, most often whole, sometimes cut short."""
    whole = values.map(json.dumps)
    return st.one_of(whole, whole, whole, whole.flatmap(
        lambda text: st.integers(1, len(text)).map(lambda k: text[:k])))


ENDPOINT = LABEL | _as_argument(GHS_JSON)
ORACLE = json.dumps(json.loads(ORACLE1))

# (argv with None in the fuzzed slot, what that slot holds)
JSON_SLOTS = [
    (["intersect", "--a", None, "--b", CURVE], _as_argument(CURVE_JSON)),
    (["intersect", "--a", CURVE, "--b", None], _as_argument(CURVE_JSON)),
    (["diagram", "classify", "--cap", "4", "--diagram", None],
     _as_argument(DIAGRAM_JSON)),
    (["diagram", "lambda", "--cap", "3", "--diagram", None],
     _as_argument(DIAGRAM_JSON)),
    (["diagram", "quotient", "--cap", "4", "--diagram", S3,
      "--bijection", None], _as_argument(BIJECTION_JSON)),
    (["ghs", "reduce", "--in", None, "--move", WR1A], _as_argument(GHS_JSON)),
    (["ghs", "reduce", "--in", G3, "--move", None], _as_argument(MOVE_JSON)),
    (["ghs", "compare", None, G3], _as_argument(GHS_JSON)),
    (["sog", "flatten", "--start", "P", "--end", "Q", "--oracle", None],
     _as_argument(ORACLE_JSON)),
    (["sog", "flatten", "--start", None, "--end", "Q", "--oracle", ORACLE],
     ENDPOINT),
    (["sog", "verify", "--in", None], _as_argument(SOG_JSON)),
    (["distance", "--cap", "4", "--edge1", EDGE, "--edge2", EDGE,
      "--diagram", None], _as_argument(DIAGRAM_JSON)),
    (["distance", "--cap", "4", "--diagram", S3, "--edge2", EDGE,
      "--edge1", None], _as_argument(EDGE_JSON)),
]


@pytest.mark.parametrize("argv, argument", JSON_SLOTS,
                         ids=[" ".join(a[:2]) + f" {i}"
                              for i, (a, _) in enumerate(JSON_SLOTS)])
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_json_ends_in_a_result_a_verdict_or_one_input_error(
        argv, argument, data):
    text = data.draw(argument)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([text if a is None else a for a in argv])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("input error: ")
    else:
        assert code in (0, 2) and err.getvalue() == "", err.getvalue()
