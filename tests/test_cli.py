import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oriconvex
from oriconvex import cli, verifier
from oriconvex.cli import main
from oriconvex.graphs import Digraph, encode_graph6
from oriconvex.orienters import complete_graph_orientations, d2_construction
from oriconvex.smallgraphs import connected_graphs
from conftest import DATA_DIR, complete_graph, cycle_plus_chords, path_graph

C5_EDGES = "5\\n0 1\\n1 2\\n2 3\\n3 4\\n4 0"
K4_EDGES = "4\\n0 1\\n0 2\\n0 3\\n1 2\\n1 3\\n2 3"
P3_EDGES = "3\\n0 1\\n1 2"
K3_EDGES = "3\\n0 1\\n0 2\\n1 2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_c5(capsys):
    code, out, _ = run(capsys, "invariants", "--edges", C5_EDGES)
    assert code == 0
    assert "g⁻=2 g⁺=4 h⁻=2 h⁺=4 con⁻=1 con⁺=4" in out


def test_invariants_k4(capsys):
    code, out, _ = run(capsys, "invariants", "--edges", K4_EDGES)
    assert code == 0
    assert "g⁻=2 g⁺=4 h⁻=2 h⁺=4" in out


def test_invariants_p3_convexity(capsys):
    code, out, _ = run(capsys, "invariants", "--edges", P3_EDGES)
    assert code == 0
    assert "con⁻=2 con⁺=2" in out


def test_invariants_json_round_trips(capsys):
    code, out, _ = run(capsys, "invariants", "--edges", C5_EDGES, "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["g_min"] == 2 and rec["con_max"] == 4
    assert len(rec["witnesses"]["g_min"]) == 5


def test_invariants_digraph_input(capsys):
    code, out, _ = run(capsys, "invariants", "--arcs", "3\\n0 1\\n1 2")
    assert code == 0
    assert "g=2 h=2 con=2" in out
    code, out, _ = run(capsys, "invariants", "--arcs", "3\\n0 1\\n1 2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "g": 2, "h": 2, "con": 2, "geodetic_witness": [0, 2],
                               "hull_witness": [0, 2], "convexity_witness": [0, 1]}
    code, out, _ = run(capsys, "invariants", "--arcs", "3\\n0 1\\n1 2", "--format", "csv")
    assert code == 0
    assert out == "n,g,h,con\r\n3,2,2,2\r\n"


def test_invariants_csv(capsys):
    code, out, _ = run(capsys, "invariants", "--edges", C5_EDGES, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph,n,m,g_min")
    assert lines[1].split(",")[3:] == ["2", "4", "2", "4", "1", "4"]


def test_invariants_budget_refusal(capsys):
    code, _, err = run(capsys, "invariants", "--edges", C5_EDGES, "--budget", "3")
    assert code == 2
    assert "budget" in err


def test_invariants_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "--edges", "3\\n0 9")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("flag", ["--edges", "--arcs"])
def test_invariants_refuse_a_vertex_count_over_the_limit(capsys, flag):
    code, out, err = run(capsys, "invariants", flag, "99999999999")
    assert code == 2
    assert out == ""
    assert "vertex count 99999999999 is over the limit of 1000" in err


def test_invariants_input_names_the_failing_line(capsys, tmp_path):
    path = tmp_path / "three.g6"
    path.write_bytes(b"Bw\nBw\nD\x85hc\n")
    code, out, err = run(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "line 3 (D\x85hc): trailing garbage at byte 3" in err


# sha256 of `invariants --input data/connected_n5.g6 --format json` stdout,
# which carries the six witness orientations of every graph, byte for byte
INVARIANTS_JSON_SHA256 = "d23a067a0ccd7f561801b5c9e12c0614840f9579fd046544147855228cd1ee67"
# the same for data/connected_n6.g6
INVARIANTS_N6_JSON_SHA256 = "8d13ac78c503248befa0885e2b807f7ad7cdbc1aac82bba51ec8abfe6d850995"
# the same for data/connected_n5.g6 in the text and CSV formats
INVARIANTS_TEXT_SHA256 = "af41d1625f925e62673055e4c8147b1cb1c34cd0ffb933b73c43fed5522624d4"
INVARIANTS_CSV_SHA256 = "70d6f1bc289a7ace2f34c215bef2956bdaddd2303066847f401eceec1ab4e8ff"


@pytest.mark.parametrize("corpus, fmt, sha, workers", [
    ("connected_n5", "json", INVARIANTS_JSON_SHA256, []),
    ("connected_n5", "json", INVARIANTS_JSON_SHA256, ["--workers", "1"]),
    ("connected_n5", "json", INVARIANTS_JSON_SHA256, ["--workers", "2"]),
    ("connected_n5", "json", INVARIANTS_JSON_SHA256, ["--workers", "3"]),
    ("connected_n6", "json", INVARIANTS_N6_JSON_SHA256, []),
    ("connected_n6", "json", INVARIANTS_N6_JSON_SHA256, ["--workers", "2"]),
    ("connected_n5", "text", INVARIANTS_TEXT_SHA256, []),
    ("connected_n5", "csv", INVARIANTS_CSV_SHA256, []),
], ids=["serial", "1", "2", "3", "n6-serial", "n6-2", "text", "csv"])
def test_invariants_json_witnesses_are_pinned(capsys, corpus, fmt, sha, workers):
    code, out, _ = run(capsys, "invariants", "--input", str(DATA_DIR / f"{corpus}.g6"),
                       "--format", fmt, *workers)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of `invariants --arcs` stdout for the directed 4-cycle, each format
INVARIANTS_ARCS_SHA256 = {
    "text": "bf69f91b7102ad22772b62720af5c4b21cae64f6c6605271060a7ec68565ee21",
    "csv": "41f12bd617bd6f2c34e7b97751f52917e6f036de9a3a32081ad80ae0fbdc3f32",
    "json": "dbf01ee3c245e39107d7f668a59b1ae9efbb2ca823fbf80bbd3a7d2c28dd177e",
}


@pytest.mark.parametrize("fmt", sorted(INVARIANTS_ARCS_SHA256))
def test_invariants_arcs_stdout_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "invariants", "--arcs", "4\\n0 1\\n1 2\\n2 3\\n3 0",
                       "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INVARIANTS_ARCS_SHA256[fmt]


def test_invariants_arcs_past_the_scan_limit_exit_2(capsys):
    # 67 disjoint directed triangles: g = 134, and the g scan would test
    # C(201, 4) sets of size 4, over its limit
    arcs = "\\n".join(["201"] + [f"{3 * i + a} {3 * i + (a + 1) % 3}"
                                  for i in range(67) for a in range(3)])
    code, out, err = run(capsys, "invariants", "--arcs", arcs)
    assert (code, out) == (2, "")
    assert err == ("error: the exact g or h search would test 65998350 candidate sets "
                   "of size 4 (every smaller set failed), over its limit of 16777216\n")


def test_invariants_empty_input_file_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, err = run(capsys, "invariants", "--input", str(path))
    assert (code, out, err) == (2, "", "error: no graphs in input\n")


def test_a_budget_over_the_default_warns_and_runs(capsys):
    code, out, err = run(capsys, "invariants", "--edges", P3_EDGES, "--budget", "21")
    assert code == 0
    assert "g⁻=2" in out
    assert err.startswith("warning: edge budget 21 allows up to 2^21 orientations per graph; "
                          "expect long sweeps\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("argv", [
    ["invariants", "--edges", P3_EDGES],
    ["verify", str(DATA_DIR / "connected_n3.g6")],
], ids=["invariants", "verify"])
def test_a_closed_stdout_pipe_is_no_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 0
    assert "error" not in capsys.readouterr().err


def test_invariants_print_the_graphs_before_one_over_the_budget(capsys, tmp_path):
    # K7 (21 edges) is refused after the triangle and the path before it are
    # printed, in input order; in a worker the refusal comes back pickled
    path = tmp_path / "three.g6"
    path.write_text("Bw\nBg\nF~~~w\n")
    outs = []
    for workers in ([], ["--workers", "2"]):
        code, out, err = run(capsys, "invariants", "--input", str(path), "--format", "json",
                             *workers)
        assert code == 2
        assert [json.loads(line)["graph"] for line in out.splitlines()] == ["Bw", "Bg"]
        assert "graph has 21 edges, over the enumeration budget of 20" in err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag", ["--symmetry", "--no-symmetry"])
@pytest.mark.parametrize("command", ["invariants", "verify", "classify"])
def test_sweep_has_no_symmetry_setting(capsys, command, flag):
    # reversal halving is always on: the sweep has no setting for it
    source = ["--edges", P3_EDGES] if command == "invariants" else [str(DATA_DIR / "connected_n3.g6")]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_invariants_reports_disconnection_before_encoding(capsys):
    # 63 vertices is also past the graph6 short form, but connectivity is
    # the real problem and is checked first
    code, _, err = run(capsys, "invariants", "--edges", "63\\n0 1")
    assert code == 2
    assert "connected" in err
    assert "graph6" not in err


# ---------------------------------------------------------------------------
# orient


def test_orient_extreme_free_c4(capsys):
    code, out, _ = run(capsys, "orient", "extreme-free", "--edges", "4\\n0 1\\n1 2\\n2 3\\n0 3")
    assert code == 0
    assert "0 extreme vertices" in out
    arcs = out.splitlines()[0].split(": ")[1].split()
    assert len(arcs) == 4


def test_orient_extreme_free_ends_quickly_on_100_vertices(capsys):
    g = cycle_plus_chords(random.Random(100), 100, 150)
    edges = "\\n".join([str(g.n)] + [f"{u} {v}" for u, v in g.edges])
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "orient", "extreme-free", "--edges", edges)
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert "self-check: 0 extreme vertices" in out
    assert len(out.splitlines()[0].split(": ")[1].split()) == 150


def test_orient_extreme_free_refuses_p3(capsys):
    code, _, err = run(capsys, "orient", "extreme-free", "--edges", P3_EDGES)
    assert code == 2
    assert err == ("error: extreme-free orientation needs minimum degree 2: vertex 0 has "
                   "degree 1, and an end-vertex is a source or a sink in every orientation, "
                   "hence extreme\n")


@pytest.mark.parametrize("edges, vertex", [("1", 0), ("4\\n0 1\\n1 2\\n0 2", 3)],
                         ids=["K1", "K3+K1"])
def test_orient_extreme_free_names_an_isolated_vertex(capsys, edges, vertex):
    # every vertex of degree below 2 used to be blamed on an end-vertex
    code, out, err = run(capsys, "orient", "extreme-free", "--edges", edges)
    assert (code, out) == (2, "")
    assert err == ("error: extreme-free orientation needs minimum degree 2: "
                   f"vertex {vertex} has degree 0, and an isolated vertex is interior "
                   "to no geodesic, hence extreme\n")


def _d1_numbers_like_d2(monkeypatch, g, *searches):
    """Make the verifier's g or h search (names "geodetic_number",
    "hull_number") report the number of g's D2 for D1 as well."""
    d2, _ = d2_construction(g)
    for name in searches:
        monkeypatch.setattr(verifier, name, lambda d, real=getattr(verifier, name): real(d2))


def test_orient_d1d2_reports_a_failed_drop(capsys, monkeypatch):
    # the self-check line used to be printed, with exit 0, whatever the numbers
    _d1_numbers_like_d2(monkeypatch, path_graph(3), "geodetic_number")
    code, out, _ = run(capsys, "orient", "d1d2", "--edges", P3_EDGES)
    assert code == 1
    assert "self-check" not in out
    assert out.splitlines()[3:] == ["FAIL construct-g: g(D1)=3 !< g(D2)=3"]
    _d1_numbers_like_d2(monkeypatch, path_graph(3), "hull_number")
    code, out, _ = run(capsys, "orient", "d1d2", "--edges", P3_EDGES, "--format", "json")
    assert code == 1
    rec = json.loads(out)
    assert [(f["check"], f["message"]) for f in rec["failures"]] == [
        ("construct-g", "g(D1)=3 !< g(D2)=3"), ("construct-h", "h(D1)=3 !< h(D2)=3")]


def test_orient_d1d2_p3(capsys):
    code, out, _ = run(capsys, "orient", "d1d2", "--edges", P3_EDGES)
    assert code == 0
    assert "D2: 0->1 2->1" in out
    assert "D1: 0->1 1->2" in out


def test_orient_d1d2_json_carries_selection(capsys):
    code, out, _ = run(capsys, "orient", "d1d2", "--edges", "4\\n0 1\\n1 2\\n2 3",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["selection"]["v1"] == 1
    assert rec["g_d1"] < rec["g_d2"] and rec["h_d1"] < rec["h_d2"]


def test_orient_complete(capsys):
    code, out, _ = run(capsys, "orient", "complete", "--n", "4")
    assert code == 0
    assert "g(transitive)=4" in out
    assert "g(reversed-path)=2" in out
    # h of both tournaments is checked, so it is shown too
    assert out.splitlines()[2] == ("self-check: g(transitive)=4, h(transitive)=4, "
                                   "h(reversed-path)=2, g(reversed-path)=2, witness {0, 3}")


def test_orient_complete_large_n_asks_for_no_con(capsys):
    # the reversed-path tournament has no extreme vertex, so a con search
    # here would be exponential in n; g and h are the numbers checked
    code, out, _ = run(capsys, "orient", "complete", "--n", "70")
    assert code == 0
    assert "g(reversed-path)=2, witness {0, 69}" in out


def test_orient_complete_reports_swapped_tournaments(capsys, monkeypatch):
    # each tournament number that is not n or 2 takes the self-check's place
    transitive, reversed_path = complete_graph_orientations(4)
    monkeypatch.setattr(cli, "complete_graph_orientations",
                        lambda n: (reversed_path, transitive))
    code, out, _ = run(capsys, "orient", "complete", "--n", "4")
    assert code == 1
    assert out.splitlines()[2:] == [
        "FAIL complete-route: g_of_transitive=2, expected 4",
        "FAIL complete-route: g_of_reversed_path=4, expected 2",
        "FAIL complete-route: h_of_transitive=2, expected 4",
        "FAIL complete-route: h_of_reversed_path=4, expected 2",
    ]
    code, out, _ = run(capsys, "orient", "complete", "--n", "4", "--format", "json")
    assert code == 1
    rec = json.loads(out)
    assert (rec["g_of_transitive"], rec["g_of_reversed_path"]) == (2, 4)
    assert [(f["check"], f["orientation"]) for f in rec["failures"]] == [
        ("complete-route", [list(a) for a in d.arcs])
        for d in (reversed_path, transitive, reversed_path, transitive)]


def test_orient_complete_checks_h_too(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "hull_number", lambda d: (3, (0, 1, 2)))
    code, out, _ = run(capsys, "orient", "complete", "--n", "4")
    assert code == 1
    assert out.splitlines()[2:] == [
        "FAIL complete-route: h_of_transitive=3, expected 4",
        "FAIL complete-route: h_of_reversed_path=3, expected 2",
    ]
    code, out, _ = run(capsys, "orient", "complete", "--n", "4", "--format", "json")
    assert code == 1
    rec = json.loads(out)
    assert (rec["g_of_transitive"], rec["g_of_reversed_path"]) == (4, 2)
    assert [f["message"] for f in rec["failures"]] == [
        "h_of_transitive=3, expected 4", "h_of_reversed_path=3, expected 2"]


def test_orient_complete_bounds_n(capsys):
    # an unbounded --n built both tournaments' n^2 arcs before any check
    code, out, err = run(capsys, "orient", "complete", "--n", "1001")
    assert code == 2
    assert out == ""
    assert "--n 1001 is over the limit of 1000" in err


def test_orient_complete_from_an_input_graph(capsys):
    assert run(capsys, "orient", "complete", "--edges", K3_EDGES) == \
        run(capsys, "orient", "complete", "--n", "3")
    code, out, err = run(capsys, "orient", "complete", "--edges", P3_EDGES)
    assert (code, out, err) == (2, "", "error: orient complete needs a complete graph (or --n)\n")


def test_orient_complete_needs_three_vertices(capsys):
    code, out, err = run(capsys, "orient", "complete", "--n", "2")
    assert (code, out, err) == (2, "", "error: orient complete needs n >= 3\n")


def test_orient_json_reports(capsys):
    code, out, _ = run(capsys, "orient", "complete", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"transitive": [[0, 1], [0, 2], [1, 2]],
                               "reversed_path": [[0, 2], [1, 0], [2, 1]],
                               "g_of_transitive": 3, "g_of_reversed_path": 2,
                               "h_of_transitive": 3, "h_of_reversed_path": 2}
    code, out, _ = run(capsys, "orient", "extreme-free", "--edges", "4\\n0 1\\n1 2\\n2 3\\n0 3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"arcs": [[0, 1], [1, 2], [2, 3], [3, 0]], "extreme_vertices": []}


def test_orient_takes_no_sweep_settings():
    # orient runs no orientation sweep, so --budget/--workers are usage errors
    with pytest.raises(SystemExit) as exc:
        main(["orient", "d1d2", "--edges", P3_EDGES, "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["complete", "--n", "4"], ["d1d2", "--edges", P3_EDGES]],
                         ids=["complete", "d1d2"])
def test_orient_has_no_csv_format(capsys, argv):
    # orient has no CSV writer; csv used to print the text report
    with pytest.raises(SystemExit) as exc:
        main(["orient", *argv, "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", ["d1d2", "extreme-free", "complete"])
def test_orient_takes_exactly_one_graph(capsys, mode):
    # it used to run graph 1 of a corpus and ignore the rest
    code, out, err = run(capsys, "orient", mode, "--input", str(DATA_DIR / "connected_n5.g6"))
    assert code == 2
    assert out == ""
    assert "orient takes one graph, got 21" in err


@pytest.mark.parametrize("argv, flags", [
    (["invariants"], "--input, --edges or --arcs"),
    (["orient", "d1d2"], "--input or --edges"),
    (["orient", "complete"], "--input, --edges or --n"),
], ids=["invariants", "orient", "orient-complete"])
def test_no_input_names_the_input_flags_of_the_command(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: no input given: use {flags}\n"


@pytest.mark.parametrize("argv", [
    ["invariants", "--edges", P3_EDGES, "--input", str(DATA_DIR / "connected_n5.g6")],
    ["invariants", "--arcs", P3_EDGES, "--edges", P3_EDGES],
    ["orient", "complete", "--n", "4", "--edges", K3_EDGES],
], ids=["invariants-edges-input", "invariants-arcs-edges", "orient-n-edges"])
def test_conflicting_input_flags_are_a_usage_error(capsys, argv):
    # each used to read one input, ignore the other and exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("mode", ["d1d2", "extreme-free"])
def test_orient_n_is_for_mode_complete_only(capsys, mode):
    code, out, err = run(capsys, "orient", mode, "--n", "4")
    assert code == 2
    assert out == ""
    assert f"--n is for mode complete only, not {mode}" in err


def test_orient_d1d2_refuses_complete(capsys):
    code, _, err = run(capsys, "orient", "d1d2", "--edges", K4_EDGES)
    assert code == 2
    assert "complete" in err


def test_orient_d1d2_on_a_complete_graph_names_orient_complete(capsys):
    # it used to name a library function that the command line cannot run
    code, out, err = run(capsys, "orient", "d1d2", "--edges", K3_EDGES)
    assert code == 2
    assert out == ""
    assert "orient complete" in err
    # K2 is complete too, but orient complete needs n >= 3
    code, out, err = run(capsys, "orient", "d1d2", "--edges", "2\\n0 1")
    assert (code, out) == (2, "")
    assert "at least 3 vertices" in err


# ---------------------------------------------------------------------------
# verify / classify


@pytest.fixture()
def corpus5(tmp_path):
    path = tmp_path / "connected5.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in connected_graphs(5)))
    return str(path)


def test_verify_all_suites_pass(capsys, corpus5):
    code, out, _ = run(capsys, "verify", "--suite", "all", corpus5)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22  # 21 graphs + summary
    assert all(": pass" in ln for ln in lines[:-1])
    assert '"violations": 0' in lines[-1]


def test_verify_json_records(capsys, corpus5):
    code, out, _ = run(capsys, "verify", "--suite", "separation", corpus5,
                       "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 22
    first = json.loads(lines[0])
    assert first["ok"] and first["separation"]["numbers"]["g_min"] >= 2
    assert json.loads(lines[-1])["summary"]["graphs"] == 21


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/corpus.g6")
    assert code == 2
    assert "No such file" in err


@pytest.mark.parametrize("argv", [
    ["invariants", "--input"], ["orient", "extreme-free", "--input"],
    ["orient", "d1d2", "--input"], ["verify"], ["classify"],
], ids=["invariants", "orient-extreme-free", "orient-d1d2", "verify", "classify"])
def test_a_directory_input_exits_2_naming_it(capsys, tmp_path, argv):
    # main's one handler turns an OSError from any command into exit 2
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_verify_propagates_parse_errors(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nzz@@@\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "parse-error" in out


def test_classify_emits_histogram(capsys, corpus5):
    code, out, _ = run(capsys, "classify", corpus5)
    assert code == 0
    assert '"cases": {"HG1": 21}' in out


def test_classify_csv(capsys, corpus5):
    code, out, _ = run(capsys, "classify", corpus5, "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split(",")[:3] == ["line", "graph", "status"]
    assert len(rows) == 22


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_classify_is_verify_suite_classify(capsys, fmt):
    corpus = str(DATA_DIR / "connected_n5.g6")
    code, out, _ = run(capsys, "classify", corpus, "--format", fmt)
    code2, out2, _ = run(capsys, "verify", corpus, "--suite", "classify", "--format", fmt)
    assert code == code2 == 0
    assert out == out2


@pytest.mark.parametrize("command, flags, named", [
    ("verify", ["--budget", "-1"], "edge budget must be at least 0, got -1"),
    ("verify", ["--workers", "0"], "workers must be at least 1, got 0"),
    ("verify", ["--workers", "-3"], "workers must be at least 1, got -3"),
    ("arcs", ["--budget", "-5"], "edge budget must be at least 0, got -5"),
    ("arcs", ["--workers", "0"], "workers must be at least 1, got 0"),
    ("edges", ["--budget", "-5"], "edge budget must be at least 0, got -5"),
    ("edges", ["--workers", "0"], "workers must be at least 1, got 0"),
], ids=["budget-1", "workers0", "workers-3", "invariants-arcs-budget-5",
        "invariants-arcs-workers0", "invariants-edges-budget-5", "invariants-edges-workers0"])
def test_verify_rejects_out_of_range_settings(capsys, corpus5, command, flags, named):
    # every command that takes the sweep settings refuses them the same way;
    # invariants --arcs used to ignore them and exit 0
    source = {
        "verify": ["verify", corpus5],
        "arcs": ["invariants", "--arcs", P3_EDGES],
        "edges": ["invariants", "--edges", P3_EDGES],
    }[command]
    code, out, err = run(capsys, *source, *flags)
    assert code == 2
    assert out == ""
    assert named in err


def test_verify_with_no_graph_checked_fails(capsys):
    code, out, err = run(capsys, "verify", "--budget", "0", str(DATA_DIR / "connected_n5.g6"))
    assert code == 2
    assert out.count(": skipped: ") == 21
    assert "no graph was checked" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_failing_record_exits_1(capsys, monkeypatch, tmp_path, fmt):
    # an orientation that keeps extreme vertices fails the convexity claim on C4
    monkeypatch.setattr(verifier, "extreme_free_orientation", lambda g: Digraph(g.n, g.edges))
    path = tmp_path / "c4.g6"
    path.write_text("Cl\n")
    code, out, _ = run(capsys, "verify", "--suite", "convexity", "--format", fmt, str(path))
    assert code == 1
    lines = out.splitlines()
    if fmt == "text":
        assert lines[:2] == ["Cl: FAIL con⁻=1 con⁺=3",
                             "  FAIL extreme-free-con: constructed orientation has con=3"]
    elif fmt == "json":
        assert json.loads(lines[0])["convexity"]["failures"] == [{
            "check": "extreme-free-con", "message": "constructed orientation has con=3",
            "orientation": [[0, 1], [0, 3], [1, 2], [2, 3]], "vertex_set": [0, 1, 2]}]
    else:
        assert lines[1] == "1,Cl,ok,False,,2,4,2,4,1,3"


# sha256 of `verify --suite all --format <fmt>` stdout, pinned so that a
# faster sweep cannot change a byte of the output unnoticed
VERIFY_STDOUT_SHA256 = {
    ("connected_n3", "json"): "f4612c903dfd217639a33cd95356b14efc09c2bdc20f6d4c0218c141e549f1a5",
    ("connected_n4", "json"): "9b27fe84d117abf6f93c4c055c23f5d1fba0092d4f50740e6638365505406c1c",
    ("connected_n5", "json"): "0d4e4c282f0674df4e667f9949a047b210ddf4200713e0febfa198c8895e4716",
    ("connected_n5", "text"): "ee14968ff34380401a8f3d258a9790077203f1d5fd02b24e22bb3b5cd7ea0b24",
    ("connected_n5", "csv"): "a36b88cc47a5c82730feb81e79114986719c93430c449c8b4e608d670da8a4aa",
    ("connected_n6", "json"): "3044b1bb2965ee3c3277ac921d46523a4b78f73a9eff82113eee163c960981c0",
    ("connected_n6", "text"): "dccffec930fc984ecb3261fd8963d4f180d14df298677614c03e4533aaf6d9f3",
    ("connected_n6", "csv"): "81b677fd2085adaa6b926bd420dd7b106cf0ef5cc38f97526dcce24b708dc90a",
    ("trees_upto_n7", "json"): "f81a94a019836b66fc480e0125af5789252289aedd9706477559dd68648b1298",
}


@pytest.mark.parametrize("corpus, fmt", [
    pytest.param(corpus, fmt, id=corpus if fmt == "json" else f"{corpus}-{fmt}")
    for corpus, fmt in sorted(VERIFY_STDOUT_SHA256)])
def test_verify_json_stdout_is_pinned(capsys, corpus, fmt):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt,
                       str(DATA_DIR / f"{corpus}.g6"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[corpus, fmt]


# a corpus with a pass, a parse error, a pass, a 21-edge skip and an n = 2
# skip, and the sha256 of `verify --suite all --format <fmt> -` stdout on it
MIXED_CORPUS = b"Bw\nD\x85hc\nFEqrg\nF~~~w\nA_\n"
MIXED_STDOUT_SHA256 = {
    "text": "d25429dd000da5eda53f89bd3c2a056eb744231c23e886af0220cdcef66795d0",
    "csv": "68ef30f00e0da55a5b6fa763ab46045f6317703ed2a013236948d978590db5d7",
    "json": "e5bcdcd3abdb78b1c24419246b02d11279b1f78850ffb68263ea3105083bc0a3",
}


@pytest.mark.parametrize("fmt", sorted(MIXED_STDOUT_SHA256))
def test_verify_mixed_stdin_corpus_is_pinned(capsys, monkeypatch, fmt):
    _bytes_stdin(monkeypatch, MIXED_CORPUS)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt, "-")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == MIXED_STDOUT_SHA256[fmt]


NON_ASCII_CORPUS = b"Bw\nD\xc3hc\nDhc\n"  # line 2 holds one byte outside ASCII


def _assert_only_line_two_fails(code, out):
    assert code == 2
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [r.get("status") for r in records[:3]] == ["ok", "parse-error", "ok"]
    assert records[1]["reason"] == "trailing garbage at byte 3"
    assert records[0]["ok"] and records[2]["ok"]
    assert records[3]["summary"]["parse_errors"] == 1


def test_verify_non_ascii_line_fails_alone_from_file(capsys, tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_bytes(NON_ASCII_CORPUS)
    _assert_only_line_two_fails(*run(capsys, "verify", str(path), "--format", "json")[:2])


def test_verify_non_ascii_line_fails_alone_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NON_ASCII_CORPUS)))
    _assert_only_line_two_fails(*run(capsys, "verify", "-", "--format", "json")[:2])


def test_verify_strips_only_ascii_whitespace(capsys, tmp_path):
    # str.strip() counts 0x85 and 0xA0 as whitespace; graph6 does not
    path = tmp_path / "nbsp.g6"
    path.write_bytes(b"Bw\x85\nBw\xa0\n")
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 2
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["graph"], r["status"], r["reason"]) for r in records[:2]] == [
        ("Bw\x85", "parse-error", "trailing garbage at byte 2"),
        ("Bw\xa0", "parse-error", "trailing garbage at byte 2"),
    ]


def test_input_and_corpus_readers_strip_the_same_whitespace(capsys, tmp_path):
    # one reader: leading and trailing ASCII whitespace is never graph6
    path = tmp_path / "spaced.g6"
    path.write_bytes(b" Bw\nBw\t\n")
    code, out, _ = run(capsys, "verify", str(path), "--suite", "separation")
    assert code == 0
    assert out.count("Bw: pass") == 2
    code, out, _ = run(capsys, "invariants", "--input", str(path), "--format", "csv")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["Bw", "Bw"]


def test_invariants_input_takes_no_0x85_for_a_blank_line(capsys, tmp_path):
    path = tmp_path / "nel.g6"
    path.write_bytes(b"Bw\n\x85\n")
    code, out, err = run(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "line 2 (\x85): invalid graph6 header byte 133 at byte 0" in err


def _bytes_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_stdin_edge_list_ends_lines_at_newline_only(capsys, monkeypatch):
    # a bare '\r' is not a line end, as in parse_edge_list itself
    _bytes_stdin(monkeypatch, b"3\n0 1\r1 2\n")
    code, out, err = run(capsys, "invariants", "--edges", "-")
    assert code == 2 and out == ""
    assert "line 2: expected 'u v'" in err
    _bytes_stdin(monkeypatch, b"3\r\n0 1\r\n1 2\r\n")
    code, out, _ = run(capsys, "invariants", "--edges", "-")
    assert code == 0 and "g⁻=2" in out


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_verify_ends_lines_at_newline_only(capsys, monkeypatch, tmp_path, source):
    def verify(data: bytes, *flags):
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        _bytes_stdin(monkeypatch, data)
        return run(capsys, "verify", "-" if source == "stdin" else str(path), *flags)[:2]

    code, out = verify(b"Bw\rBw\n", "--format", "json")
    assert code == 2
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["graph"], r["status"], r["reason"]) for r in records[:-1]] == [
        ("Bw\rBw", "parse-error", "trailing garbage at byte 2"),
    ]
    code, out = verify(b"Bw\r\nBo\r\n", "--suite", "convexity")
    assert code == 0 and out.count("pass") == 2


def test_convexity_csv_prints_the_swept_numbers(capsys):
    corpus = str(DATA_DIR / "connected_n4.g6")
    code, out, _ = run(capsys, "verify", "--suite", "convexity", "--format", "csv", corpus)
    assert code == 0
    convexity = [row.split(",")[5:] for row in out.splitlines()[1:]]
    code, out, _ = run(capsys, "classify", "--format", "csv", corpus)
    assert code == 0
    assert convexity == [row.split(",")[5:] for row in out.splitlines()[1:]]
    assert len(convexity) == 6 and all(all(row) for row in convexity)


def test_stdin_edge_list(capsys, monkeypatch):
    _bytes_stdin(monkeypatch, b"3\n0 1\n1 2")
    code, out, _ = run(capsys, "invariants", "--edges", "-")
    assert code == 0
    assert "g⁻=2" in out


@pytest.mark.parametrize("flag", ["--edges", "--arcs"])
def test_inline_list_reads_alike_from_the_argument_and_stdin(capsys, monkeypatch, flag):
    # '-' reads stdin; a literal backslash-n is a newline in both sources
    want = run(capsys, "invariants", flag, P3_EDGES)
    assert want[0] == 0 and want[1]
    for data in (b"3\n0 1\n1 2", P3_EDGES.encode()):
        _bytes_stdin(monkeypatch, data)
        assert run(capsys, "invariants", flag, "-") == want, data


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oriconvex", "orient", "complete", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "g(reversed-path)=2" in proc.stdout


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    src = Path(oriconvex.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, oriconvex.cli; "
         "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
         "if m in sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_reads_stdin(capsys, monkeypatch):
    _bytes_stdin(monkeypatch, b"Bw\nBo\n")
    code, out, _ = run(capsys, "verify", "-", "--suite", "convexity")
    assert code == 0
    assert out.count("pass") == 2
