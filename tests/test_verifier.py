import dataclasses
import itertools
import json
import math
import operator
import re
from types import SimpleNamespace

import pytest

from oriconvex import geodesic, invariants, orienters, verifier
from oriconvex.graphs import Digraph, Graph, encode_graph6, graph6_lines, is_complete, parse_graph6
from oriconvex.invariants import hull_number, orientable_numbers
from oriconvex.orienters import d2_construction
from oriconvex.smallgraphs import connected_graphs, trees
from oriconvex.verifier import (
    HG_CASES,
    Failure,
    classify_hg,
    classify_values,
    corpus_run,
    verify_convexity,
    verify_separation,
)
from conftest import DATA_DIR, complete_bipartite, complete_graph, cycle_graph, path_graph

from _oracles import oracle_claims


# ---------------------------------------------------------------------------
# single-graph suites


def test_k3_separation_passes_by_both_routes():
    rep = verify_separation(complete_graph(3))
    assert rep.ok
    assert rep.route == "complete"
    assert rep.numbers.values()["g_min"] == 2
    assert rep.numbers.values()["g_max"] == 3
    assert rep.constructed["g_of_transitive"] == 3
    assert rep.constructed["g_of_reversed_path"] == 2


def test_p3_separation():
    rep = verify_separation(path_graph(3))
    assert rep.ok
    assert rep.route == "induced-path"
    v = rep.numbers.values()
    assert (v["g_min"], v["h_min"], v["g_max"], v["h_max"]) == (2, 2, 3, 3)
    assert rep.constructed == {"g_d1": 2, "g_d2": 3, "h_d1": 2, "h_d2": 3}
    assert rep.hull_sets_checked >= 1


def test_p3_convexity_end_vertex_case():
    rep = verify_convexity(path_graph(3))
    assert rep.ok
    assert rep.has_end_vertex
    assert rep.con_min == rep.con_max == 2


def test_c4_convexity_separates():
    rep = verify_convexity(cycle_graph(4))
    assert rep.ok
    assert not rep.has_end_vertex
    assert rep.con_min == 1
    assert rep.con_max == 3


def test_suites_reject_bad_inputs():
    with pytest.raises(ValueError):
        verify_separation(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        verify_convexity(path_graph(2))


# ---------------------------------------------------------------------------
# classification


def test_classify_values_covers_the_five_cases_and_the_gap():
    assert classify_values(2, 4, 2, 4) == "HG1"
    assert classify_values(2, 5, 2, 4) == "HG3"
    assert classify_values(3, 4, 2, 4) == "HG4"
    assert classify_values(3, 5, 2, 3) == "HG5"
    assert classify_values(4, 5, 2, 3) == "HG6"
    # h- < g- < h+ < g+ sits outside the published list
    assert classify_values(3, 6, 2, 4) == "UNCLASSIFIED"


def test_exactly_one_case_matches_any_theorem_consistent_values():
    for h_min in range(2, 7):
        for h_max in range(h_min + 1, 8):
            for g_min in range(h_min, 8):
                for g_max in range(max(g_min + 1, h_max), 9):
                    tags = []
                    if h_min == g_min and h_max == g_max:
                        tags.append("HG1")
                    if h_min == g_min and h_max < g_max:
                        tags.append("HG3")
                    if h_min < g_min and h_max == g_max:
                        tags.append("HG4")
                    if h_min < g_min and g_min == h_max and h_max < g_max:
                        tags.append("HG5")
                    if h_min < g_min and h_max < g_min:
                        tags.append("HG6")
                    got = classify_values(g_min, g_max, h_min, h_max)
                    assert tags == ([got] if got != "UNCLASSIFIED" else []), (
                        g_min, g_max, h_min, h_max,
                    )


def _chain_holds(chain: str, values: dict[str, int]) -> bool:
    """Whether a relation chain such as "h- = g- < h+ < g+" holds."""
    terms = chain.split()
    rel = {"=": operator.eq, "<": operator.lt}
    return all(rel[op](values[a], values[b])
               for a, op, b in zip(terms[0::2], terms[1::2], terms[2::2]))


def test_classify_values_and_hg_cases_state_the_same_cases():
    # every tuple gets the one case whose published chain it satisfies, and
    # UNCLASSIFIED exactly when it satisfies none
    seen = set()
    for g_min, g_max, h_min, h_max in itertools.product(range(2, 9), repeat=4):
        if not (h_min <= g_min and h_max <= g_max and g_min < g_max and h_min < h_max):
            continue
        values = {"g-": g_min, "g+": g_max, "h-": h_min, "h+": h_max}
        case = classify_values(g_min, g_max, h_min, h_max)
        holds = [c for c, chain in HG_CASES.items() if _chain_holds(chain, values)]
        assert holds == ([] if case == "UNCLASSIFIED" else [case]), values
        seen.add(case)
    assert seen == {*HG_CASES, "UNCLASSIFIED"}


def test_trees_and_cycles_classify_hg1():
    for g in [cycle_graph(4), cycle_graph(5), cycle_graph(6)] + list(trees(5)):
        assert classify_hg(g).case == "HG1"


def test_k32_classifies_hg1_with_paper_values():
    cls = classify_hg(complete_bipartite(3, 2))
    assert cls.case == "HG1"
    assert (cls.h_min, cls.g_min, cls.h_max, cls.g_max) == (2, 2, 5, 5)


# ---------------------------------------------------------------------------
# corpus runs


def test_corpus_run_n5_all_suites(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in connected_graphs(5)))
    report = corpus_run(str(path), suite="all")
    assert len(report.records) == 21
    assert report.graphs == 21
    assert report.violations == 0
    assert report.exit_status() == 0
    assert report.case_histogram() == {"HG1": 21}
    assert [r.line for r in report.records] == list(range(1, 22))


def test_corpus_run_takes_a_pathlib_path(tmp_path):
    # a Path is a file path, not an iterable of lines
    path = tmp_path / "mixed.g6"
    path.write_text("Bw\n~~bad\nDhc\n")
    report = corpus_run(path)
    assert [r.status for r in report.records] == ["ok", "parse-error", "ok"]
    assert report.records == corpus_run(str(path)).records


def test_corpus_run_empty_file(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    report = corpus_run(str(path))
    assert report.records == []
    assert report.exit_status() == 2  # nothing was checked


def test_corpus_run_records_parse_errors_and_continues(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("Bw\n~~bad\nDhc\n")
    report = corpus_run(str(path), suite="separation")
    assert len(report.records) == 3
    assert report.records[0].ok
    assert report.records[1].status == "parse-error"
    assert report.records[2].ok
    assert report.exit_status() == 2


def test_corpus_run_reads_bytes_lines(tmp_path):
    # bytes are decoded as latin-1, not parsed as their repr "b'Bw'"
    path = tmp_path / "k3.g6"
    path.write_bytes(b"Bw\n\nBw\r\n")
    with open(path, "rb") as fh:
        from_file = corpus_run(fh, suite="separation")
    for report in (corpus_run([b"Bw"], suite="separation"), from_file):
        assert report.exit_status() == 0
        assert [r.text for r in report.records] == ["Bw"] * len(report.records)
    assert [r.line for r in from_file.records] == [1, 3]


def test_corpus_run_from_a_binary_handle_ends_lines_at_newline_only(tmp_path):
    path = tmp_path / "cr.g6"
    path.write_bytes(b"Bw\rBw\n")
    with open(path, "rb") as fh:
        report = corpus_run(fh)
    assert [(r.text, r.status, r.reason) for r in report.records] == [
        ("Bw\rBw", "parse-error", "trailing garbage at byte 2"),
    ]
    assert report.exit_status() == 2


def _lines_read_at_the_first_check(monkeypatch, **kw):
    """Run the corpus of connected_n6.g6 from a line iterator that counts
    the lines it gives; return the count at the first suite call."""
    read = []

    def lines():
        with open(DATA_DIR / "connected_n6.g6") as fh:
            for line in fh:
                read.append(line)
                yield line

    at_first_check = []
    real = verifier.verify_separation
    monkeypatch.setattr(verifier, "verify_separation",
                        lambda g, **kw: at_first_check.append(len(read)) or real(g, **kw))
    report = corpus_run(lines(), **kw)
    assert (report.graphs, len(read)) == (112, 112)
    return at_first_check[0]


def test_a_serial_run_reads_the_lines_only_as_far_as_the_sweep_needs(monkeypatch):
    # the first pack of connected_n6.g6 is swept, and its first graph
    # checked, long before the last of its 112 lines is read
    assert 0 < _lines_read_at_the_first_check(monkeypatch) < 112


def test_a_run_on_two_workers_reads_a_window_of_packs_ahead(monkeypatch):
    # the pool holds at most four of the 14 packs that have not been checked
    # yet, so the first graph is checked before the last line is read
    monkeypatch.setattr(invariants.os, "cpu_count", lambda: 2)
    assert 0 < _lines_read_at_the_first_check(monkeypatch, workers=2) < 112


def test_corpus_run_skips_out_of_scope_lines():
    lines = ["@", "A_", encode_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))]
    report = corpus_run(lines, suite="convexity")
    assert all(r.status == "skipped" for r in report.records)
    assert report.exit_status() == 2  # nothing was checked


def test_corpus_run_workers_match_serial():
    # three packs (n = 3, n = 4 with the n = 4 graph after the parse error,
    # n = 5), so two workers share them
    lines = [encode_graph6(g) for n in (3, 4) for g in connected_graphs(n)]
    lines += ["D\x85hc", lines[-1]] + [encode_graph6(g) for g in connected_graphs(5)]
    serial = corpus_run(lines, suite="all")
    fanned = corpus_run(lines, suite="all", workers=2)
    assert json.dumps([r.to_json_dict() for r in serial.records]) == json.dumps(
        [r.to_json_dict() for r in fanned.records]
    )
    assert serial.summary() == fanned.summary()


def test_corpus_packs_span_a_parse_error_and_a_skipped_line(monkeypatch):
    # the n = 5 lines share one BFS alone; a parse error and a disconnected
    # graph between them end no pack, so the same lines around them take
    # one BFS too, and every record is that of its line run alone
    n5 = (DATA_DIR / "connected_n5.g6").read_text().split()
    lines = n5[:7] + ["D\x85hc"] + n5[7:12] + [encode_graph6(Graph.from_edges(5, [(0, 1)]))]
    lines += n5[12:]
    runs = []
    real = invariants._batches
    monkeypatch.setattr(invariants, "_batches",
                        lambda n, blocks: runs.append(len(blocks)) or real(n, blocks))
    assert corpus_run(n5).graphs == 21 and runs == [21]
    runs.clear()
    report = corpus_run(lines)
    assert runs == [21]
    assert [r.status for r in report.records] == ["ok"] * 7 + ["parse-error"] + ["ok"] * 5 + [
        "skipped"] + ["ok"] * 9
    for i, (text, rec) in enumerate(zip(lines, report.records), start=1):
        (alone,) = corpus_run([text]).records
        assert rec == dataclasses.replace(alone, line=i)
        if rec.numbers is not None:
            assert (rec.numbers.exact_searches, rec.numbers.scalar_kernels) == (
                alone.numbers.exact_searches, alone.numbers.scalar_kernels)


def test_corpus_run_sweeps_n6_in_18_bfs_runs(monkeypatch):
    # as orientable_numbers_each does: 12 packs, and 2 + 4 batches of the two
    # graphs wider than one batch
    runs = []
    real = invariants._batches
    monkeypatch.setattr(invariants, "_batches",
                        lambda n, blocks: runs.append(len(blocks)) or real(n, blocks))
    assert corpus_run(DATA_DIR / "connected_n6.g6").exit_status() == 0
    assert (len(runs), sum(runs)) == (18, 116)


def test_corpus_run_rejects_out_of_range_settings():
    # workers are refused at the call, also when there is no graph to sweep
    for run in (lambda: corpus_run(["Bw"], workers=0), lambda: corpus_run(["@"], workers=0),
                lambda: corpus_run([], workers=0),
                lambda: invariants.orientable_numbers_each([], workers=0)):
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            run()
    with pytest.raises(ValueError, match="edge budget must be at least 0, got -1"):
        corpus_run(["Bw"], edge_budget=-1)


def test_corpus_run_rejects_unknown_suite():
    # one name from SUITES or "all"; no None default, no iterable of names
    for suite in ("nonsense", None, ("separation",), ["all"]):
        with pytest.raises(ValueError, match=f"unknown suite {re.escape(repr(suite))}; pick"):
            corpus_run(["Bw"], suite=suite)


def test_record_json_shape():
    rec = corpus_run(["Bw"], suite="all").records[0]
    payload = rec.to_json_dict()
    assert payload["graph"] == "Bw"
    assert payload["ok"] is True
    assert payload["separation"]["numbers"]["g_min"] == 2
    assert payload["classification"]["case"] == "HG1"


# ---------------------------------------------------------------------------
# the claims check on hull-sets of D2


def _least_hull_layer(d2):
    """The smallest hull-sets of d2 by the definitional scan: subsets by
    size, each hull computed from scratch, up to the first size with one."""
    full = frozenset(range(d2.n))
    for r in range(1, d2.n + 1):
        layer = [
            s
            for s in itertools.combinations(range(d2.n), r)
            if geodesic.convex_hull(d2, s) == full
        ]
        if layer:
            return layer
    raise AssertionError("V itself is a hull-set")


def _d2s_for_the_least_layer():
    """(g, D2, h(D2), D2's distances) of each graph of connected_n6.g6 and
    each n <= 7 graph of mindeg2_connected_upto_n8.g6 that is not complete."""
    graphs = [parse_graph6(t) for _, t in graph6_lines(str(DATA_DIR / "connected_n6.g6"))]
    graphs += [
        g
        for _, t in graph6_lines(str(DATA_DIR / "mindeg2_connected_upto_n8.g6"))
        if (g := parse_graph6(t)).n <= 7
    ]
    for g in graphs:
        if not is_complete(g):
            d2, _ = d2_construction(g)
            yield g, d2, hull_number(d2)[0], geodesic.all_pairs_distances(d2)


def test_hull_sets_at_size_h_d2_are_the_least_layer_of_a_full_scan():
    checked = 0
    for g, d2, h2, dist2 in _d2s_for_the_least_layer():
        got = verifier._hull_sets(d2, dist2, range(h2, h2 + 1))
        assert got == _least_hull_layer(d2), encode_graph6(g)
        checked += 1
    assert checked == 111 + 578  # K6 and K3..K7 are complete


def test_hull_sets_over_the_extreme_vertices_are_the_least_layer(monkeypatch):
    # every hull-set holds every extreme vertex, so the scan of the sets that
    # hold ext(D2), which verify_separation runs beyond n = 5, loses none;
    # it computes one hull per (h(D2) - |ext|)-subset of the other vertices
    hulls = []
    real = geodesic.convex_hull
    monkeypatch.setattr(geodesic, "convex_hull", lambda *a: hulls.append(a[1]) or real(*a))
    checked = 0
    for g, d2, h2, dist2 in _d2s_for_the_least_layer():
        ext = invariants._digraph_kernel(d2)[1]
        hulls.clear()
        got = verifier._hull_sets(d2, dist2, range(h2, h2 + 1), ext)
        assert len(hulls) == math.comb(d2.n - ext.bit_count(), h2 - ext.bit_count())
        assert got == _least_hull_layer(d2), encode_graph6(g)
        checked += 1
    assert checked == 111 + 578
    # a size below the held vertices has no set to test
    d2 = next(_d2s_for_the_least_layer())[1]
    assert verifier._hull_sets(d2, None, range(0, 2), 0b111) == []


def test_no_hull_set_at_size_h_d2_is_a_failure(monkeypatch):
    real = verifier.d1d2_check

    def one_too_low(d1, d2):
        nums, failures = real(d1, d2)
        return {**nums, "h_d2": nums["h_d2"] - 1}, failures

    monkeypatch.setattr(verifier, "d1d2_check", one_too_low)
    g = cycle_graph(6)
    rep = verify_separation(g)
    h2 = rep.constructed["h_d2"]
    d2, _ = d2_construction(g)
    assert rep.hull_sets_checked == 0
    assert not rep.ok
    assert Failure("claims", f"no hull-set of D2 has size h(D2)={h2}", d2.arcs) in rep.failures


# ---------------------------------------------------------------------------
# every theorem-check failure a suite can emit


def test_separation_failures_name_the_numbers():
    g = cycle_graph(5)
    nums = orientable_numbers(g)
    bad = dataclasses.replace(nums, g_min=nums.g_max, h_min=nums.h_max + 1)
    rep = verify_separation(g, numbers=bad)
    assert rep.failures == [
        Failure("g-separation", f"g-={nums.g_max} !< g+={nums.g_max}"),
        Failure("h-separation", f"h-={nums.h_max + 1} !< h+={nums.h_max}"),
    ]


def test_complete_route_failures_name_the_orientation(monkeypatch):
    transitive, reversed_path = orienters.complete_graph_orientations(4)
    monkeypatch.setattr(verifier, "complete_graph_orientations",
                        lambda n: (reversed_path, transitive))
    rep = verify_separation(complete_graph(4))
    assert rep.route == "complete"
    assert rep.failures == [
        Failure("complete-route", "g_of_transitive=2, expected 4", reversed_path.arcs),
        Failure("complete-route", "g_of_reversed_path=4, expected 2", transitive.arcs),
        Failure("complete-route", "h_of_transitive=2, expected 4", reversed_path.arcs),
        Failure("complete-route", "h_of_reversed_path=4, expected 2", transitive.arcs),
    ]


def test_d1_equal_to_d2_fails_the_construction_and_claim1(monkeypatch):
    # P3's D2 is 0 -> 1 <- 2, so its one hull-set is V, and without the
    # flip the sink v1 = 1 is in I_D2(V) but not in I_D2({0, 2})
    monkeypatch.setattr(verifier, "d1_from_d2", lambda d2, sel: d2)
    rep = verify_separation(path_graph(3))
    d2 = ((0, 1), (2, 1))
    assert rep.failures == [
        Failure("construct-g", "g(D1)=3 !< g(D2)=3", d2),
        Failure("construct-h", "h(D1)=3 !< h(D2)=3", d2),
        Failure("claim1", "I^1_D2(S) not within I^1_D1(S - v1) for hull-set S=[0, 1, 2]",
                orientation=d2, vertex_set=(1,)),
    ]
    report = corpus_run([encode_graph6(path_graph(3))], "separation")
    assert report.violations == 1
    assert report.exit_status() == 1
    assert report.records[0].to_json_dict()["separation"]["failures"][0]["check"] == "construct-g"


def test_claim2_is_the_second_interval_step():
    # D1 reverses D2's arcs at 3: I_D2({0, 1}) = I_D1({0, 1}) = {0, 1, 3},
    # but the next step puts 2 in on D2 alone (0 -> 2 -> 3)
    d2 = Digraph.from_arcs(4, [(0, 2), (1, 2), (1, 3), (2, 3), (3, 0)])
    d1 = Digraph.from_arcs(4, [(0, 2), (0, 3), (1, 2), (3, 1), (3, 2)])
    failures = []
    assert verifier._check_claims(d2, SimpleNamespace(v1=2), d1, range(2, 3), failures) == 1
    assert failures == [
        Failure("claim2", "I^2_D2(S) not within I^2_D1(S - v1) for hull-set S=[0, 1]",
                orientation=d2.arcs, vertex_set=(2,)),
    ]


def _claims_corpus():
    """(d2, sel, d1, sizes) of the claims check for every graph of
    connected_n6.g6 and each n <= 7 graph of mindeg2_connected_upto_n8.g6
    that is not complete, with the sizes `verify_separation` scans."""
    texts = [t for _, t in graph6_lines(str(DATA_DIR / "connected_n6.g6"))]
    texts += [t for _, t in graph6_lines(str(DATA_DIR / "mindeg2_connected_upto_n8.g6"))]
    for g in map(parse_graph6, texts):
        if g.n <= 7 and not is_complete(g):
            d2, sel = d2_construction(g)
            h2 = hull_number(d2)[0]
            sizes = range(1, g.n + 1) if g.n <= 5 else range(h2, h2 + 1)
            yield d2, sel, orienters.d1_from_d2(d2, sel), sizes


def test_claims_on_the_kernels_match_the_frozenset_restatement():
    checked = hull_sets = 0
    for d2, sel, d1, sizes in _claims_corpus():
        failures = []
        count = verifier._check_claims(d2, sel, d1, sizes, failures)
        assert (count, failures) == oracle_claims(d2, sel.v1, d1, sizes), d2.arcs
        checked += 1
        hull_sets += count
    assert checked == 111 + 578  # K6 and K3..K7 are complete
    assert hull_sets > checked


def test_a_broken_d1_fails_claim1_as_the_frozenset_restatement_does():
    # reversing one arc of D1 at a time breaks claim 1 on some hull-sets;
    # each failure record, vertex set included, is the frozenset one
    broken = 0
    for d2, sel, d1, sizes in itertools.islice(_claims_corpus(), 12):
        for j, (u, v) in enumerate(d1.arcs):
            arcs = list(d1.arcs)
            arcs[j] = (v, u)
            bad = Digraph.from_arcs(d1.n, arcs)
            failures = []
            count = verifier._check_claims(d2, sel, bad, sizes, failures)
            assert (count, failures) == oracle_claims(d2, sel.v1, bad, sizes), arcs
            assert {f.check for f in failures} <= {"claim1"}
            broken += bool(failures)
    assert broken > 0


def test_convexity_failures_name_the_numbers(monkeypatch):
    p3, c4 = path_graph(3), cycle_graph(4)
    nums = orientable_numbers(p3)
    rep = verify_convexity(p3, numbers=dataclasses.replace(nums, con_max=1, con_min=1))
    assert rep.failures == [
        Failure("con-max", "con+=1, expected 2"),
        Failure("con-min-endvertex", "end-vertex present but con-=1 != 2"),
    ]
    nums = orientable_numbers(c4)
    rep = verify_convexity(c4, numbers=dataclasses.replace(nums, con_min=3))
    assert rep.failures == [Failure("con-min", "no end-vertex but con-=3 = n-1")]

    monkeypatch.setattr(verifier, "convexity_number", lambda d: (0, ()))
    rep = verify_convexity(p3)
    assert rep.failures == [
        Failure("con-max-witness", "all-out orientation has con=0", ((0, 1), (1, 2))),
    ]
