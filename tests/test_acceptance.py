"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <k>: PASS (<seconds>)` line (visible with
pytest -s); a failed assertion is the corresponding FAIL.  Runtime budgets
are asserted where stated.
"""

import hashlib
import itertools
import random
import time
from pathlib import Path

import pytest

from oriconvex.graphs import (
    end_vertices,
    enumerate_orientations,
    is_complete,
    is_connected,
    min_degree,
    parse_graph6,
    reverse,
)
from oriconvex import geodesic
from oriconvex.invariants import (
    _hull_mask,
    _kernel,
    convexity_number,
    geodetic_number,
    hull_number,
)
from oriconvex.orienters import d1_from_d2, d2_construction, extreme_free_orientation
from oriconvex.smallgraphs import connected_graphs, connected_min_degree_2, trees
from oriconvex.verifier import HG_CASES, classify_values
from conftest import DATA_DIR, complete_bipartite, complete_graph, cycle_graph

from _oracles import all_digraphs, oracle_convexity, oracle_geodetic, oracle_hull, random_digraph


def _report(k, t0, detail):
    print(f"\nACCEPTANCE {k}: PASS ({time.perf_counter() - t0:.1f}s) {detail}")


def test_criterion_01_complete_graphs():
    t0 = time.perf_counter()
    from oriconvex.invariants import orientable_numbers

    for n in (3, 4, 5):
        nums = orientable_numbers(complete_graph(n))
        assert (nums.g_min, nums.h_min) == (2, 2), f"K{n}"
        assert (nums.g_max, nums.h_max) == (n, n), f"K{n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(1, t0, "K3..K5 enumerate to g-=h-=2 and g+=h+=n")


def test_criterion_02_trees():
    t0 = time.perf_counter()
    from oriconvex.invariants import orientable_numbers

    checked = 0
    for n in range(3, 8):
        for g in trees(n):
            k = len(end_vertices(g))
            nums = orientable_numbers(g)
            assert (nums.g_min, nums.h_min) == (k, k), (n, g.edges)
            assert (nums.g_max, nums.h_max) == (n, n), (n, g.edges)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _report(2, t0, f"{checked} trees: g-=h-=#leaves, g+=h+=n")


def test_criterion_03_odd_cycles():
    t0 = time.perf_counter()
    from oriconvex.invariants import orientable_numbers

    for order in (5, 7):
        nums = orientable_numbers(cycle_graph(order))
        assert (nums.g_min, nums.h_min) == (2, 2), f"C{order}"
        assert (nums.g_max, nums.h_max) == (order - 1, order - 1), f"C{order}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(3, t0, "C5 and C7: g-=h-=2, g+=h+=2n")


def test_criterion_04_complete_bipartite():
    t0 = time.perf_counter()
    from oriconvex.invariants import orientable_numbers

    for s, t in ((2, 2), (2, 3)):
        g = complete_bipartite(s, t)
        nums = orientable_numbers(g)
        assert (nums.g_min, nums.h_min) == (2, 2), f"K{s},{t}"
        assert (nums.g_max, nums.h_max) == (g.n, g.n), f"K{s},{t}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(4, t0, "K_2,2 and K_2,3: g-=h-=2, g+=h+=n")


def test_criterion_05_separation_exhaustive(swept_numbers, connected_upto_6):
    t0 = time.perf_counter()
    table, sweep_elapsed = swept_numbers
    count = 0
    assert len(connected_upto_6[6]) == 112
    for n, graphs in connected_upto_6.items():
        for i, _ in enumerate(graphs):
            nums = table[(n, i)]
            assert nums.g_min < nums.g_max, (n, i)
            assert nums.h_min < nums.h_max, (n, i)
            count += 1
    assert count == 141
    assert sweep_elapsed < 600
    _report(5, t0, f"g- < g+ and h- < h+ on all {count} connected graphs, "
                   f"3 <= n <= 6 (shared sweep {sweep_elapsed:.1f}s)")


def test_criterion_06_convexity_exhaustive(swept_numbers, connected_upto_6):
    t0 = time.perf_counter()
    table, sweep_elapsed = swept_numbers
    for n, graphs in connected_upto_6.items():
        for i, g in enumerate(graphs):
            nums = table[(n, i)]
            assert nums.con_max == n - 1, (n, i)
            assert (nums.con_min == n - 1) == bool(end_vertices(g)), (n, i)
    assert sweep_elapsed < 600
    _report(6, t0, "con+ = n-1 everywhere; con- = n-1 iff an end-vertex exists "
                   f"(shared sweep {sweep_elapsed:.1f}s)")


def _mindeg2_corpus():
    path = DATA_DIR / "mindeg2_connected_upto_n8.g6"
    if path.exists():
        graphs = [parse_graph6(ln) for ln in path.read_text().splitlines() if ln]
        assert len(graphs) == 8025
        return graphs
    return [g for n in range(3, 9) for g in connected_min_degree_2(n)]


# sha256 of the repr of [convexity_number(d)] over the extreme-free
# orientations of the 8,025 graphs of mindeg2_connected_upto_n8.g6, in file order
MINDEG2_N8_XFREE_CON_SHA256 = "12490a640d121faff1146893fa746eda4a8581d0afabd63d8aa419d145c3b7c9"


def test_criterion_07_extreme_free_constructive():
    graphs = _mindeg2_corpus()
    t0 = time.perf_counter()
    cons = []
    for g in graphs:
        assert is_connected(g) and min_degree(g) >= 2 and 3 <= g.n <= 8
        d = extreme_free_orientation(g)
        assert d.is_orientation_of(g)
        assert not any(geodesic.is_extreme(d, v) for v in range(d.n))
        # no vertex is extreme, so no (n-1)-set is convex
        con, cw = convexity_number(d)
        assert con < g.n - 1 and geodesic.is_convex(d, cw), g.edges
        cons.append((con, cw))
    assert hashlib.sha256(repr(cons).encode()).hexdigest() == MINDEG2_N8_XFREE_CON_SHA256
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(7, t0, f"extreme-free orientation with con < n - 1 on all "
                   f"{len(graphs)} connected min-degree-2 graphs, n <= 8")


def test_criterion_08_d1_d2_constructive():
    t0 = time.perf_counter()
    full_checked = 0
    minimum_checked = 0
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            if is_complete(g):
                continue
            d2, sel = d2_construction(g)
            d1 = d1_from_d2(d2, sel)
            assert geodetic_number(d1)[0] < geodetic_number(d2)[0], g.edges
            assert hull_number(d1)[0] < hull_number(d2)[0], g.edges
            dist2 = geodesic.all_pairs_distances(d2)
            dist1 = geodesic.all_pairs_distances(d1)
            everything = frozenset(range(n))
            if n <= 5:
                hull_sets = [
                    s
                    for r in range(1, n + 1)
                    for s in itertools.combinations(range(n), r)
                    if geodesic.convex_hull(d2, s) == everything
                ]
                full_checked += len(hull_sets)
            else:
                h2 = hull_number(d2)[0]
                hull_sets = [
                    s
                    for s in itertools.combinations(range(n), h2)
                    if geodesic.convex_hull(d2, s) == everything
                ]
                minimum_checked += len(hull_sets)
            for s in hull_sets:
                a = frozenset(s)
                b = a - {sel.v1}
                while True:
                    a2 = geodesic.interval_of_set(d2, dist2, a)
                    b2 = geodesic.interval_of_set(d1, dist1, b)
                    assert a2 <= b2, (g.edges, s)
                    if a2 == a and b2 == b:
                        break
                    a, b = a2, b2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(8, t0, f"claims 1+2 on {full_checked} hull-sets (n <= 5, all) and "
                   f"{minimum_checked} minimum hull-sets (n = 6); strict g/h drops")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    digraphs = 0
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            for d in enumerate_orientations(g):
                assert geodetic_number(d) == oracle_geodetic(d)
                assert hull_number(d) == oracle_hull(d)
                assert convexity_number(d) == oracle_convexity(d)
                digraphs += 1
    rng = random.Random(20260809)
    for _ in range(200):
        d = random_digraph(rng, rng.randint(2, 7))
        assert geodetic_number(d) == oracle_geodetic(d)
        assert hull_number(d) == oracle_hull(d)
        assert convexity_number(d) == oracle_convexity(d)
        digraphs += 1
    _report(9, t0, f"seeded search equals the unseeded full-subset oracle on "
                   f"{digraphs} digraphs (values and witnesses)")


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    # interval symmetry + reversal invariance + hull idempotence/convexity,
    # every orientation of every connected graph on 3..5 vertices
    checked = 0
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            for d in enumerate_orientations(g):
                dist = geodesic.all_pairs_distances(d)
                r = reverse(d)
                for u in range(n):
                    for v in range(u + 1, n):
                        assert geodesic.interval(d, dist, u, v) == geodesic.interval(d, dist, v, u)
                assert geodetic_number(d)[0] == geodetic_number(r)[0]
                assert hull_number(d)[0] == hull_number(r)[0]
                assert convexity_number(d)[0] == convexity_number(r)[0]
                iv, _ = _kernel(n, d.out_masks)
                for smask in range(1, 1 << n):
                    h = _hull_mask(iv, smask)
                    assert _hull_mask(iv, h) == h
                checked += 1

    # definitional-path idempotence stays exhaustive at n <= 4
    for n in (3, 4):
        for g in connected_graphs(n):
            for d in enumerate_orientations(g):
                for r_size in range(1, n + 1):
                    for s in itertools.combinations(range(n), r_size):
                        h = geodesic.convex_hull(d, s)
                        assert geodesic.convex_hull(d, h) == h
                        assert geodesic.is_convex(d, h)

    # three-way equivalence: extreme <=> V - v convex <=> never interior
    def three_way(d):
        dist = geodesic.all_pairs_distances(d)
        everything = frozenset(range(d.n))
        for v in range(d.n):
            a = geodesic.is_extreme(d, v)
            b = geodesic.is_convex(d, everything - {v})
            c = not any(
                dist[u][v] + dist[v][w] == dist[u][w]
                and dist[u][v] >= 1
                and dist[v][w] >= 1
                for u in range(d.n)
                for w in range(d.n)
                if v not in (u, w) and dist[u][w] != geodesic.UNREACHABLE
            )
            assert a == b == c, (d.arcs, v)

    for n in (2, 3, 4):
        for d in all_digraphs(n):
            three_way(d)
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            for d in enumerate_orientations(g):
                three_way(d)
    rng = random.Random(5150)
    for _ in range(1000):
        three_way(random_digraph(rng, 5))
    _report(10, t0, f"interval symmetry, reversal invariance, hull idempotence, "
                    f"and the three-way extremeness equivalence ({checked} orientations)")


def test_criterion_11_classifier(swept_numbers, connected_upto_6, capsys):
    t0 = time.perf_counter()
    table, _ = swept_numbers
    hist = {}
    for n, graphs in connected_upto_6.items():
        for i, _ in enumerate(graphs):
            nums = table[(n, i)]
            case = classify_values(nums.g_min, nums.g_max, nums.h_min, nums.h_max)
            assert case in HG_CASES, f"graph ({n},{i}) fell outside the published cases"
            hist[case] = hist.get(case, 0) + 1
    with capsys.disabled():
        print(f"\nACCEPTANCE 11 histogram over 3 <= n <= 6: {dict(sorted(hist.items()))}")
        witnesses = {k: v for k, v in hist.items() if k != "HG1"}
        print(f"ACCEPTANCE 11 HG3-HG6 witnesses found: {witnesses or 'none'}")
    _report(11, t0, "every graph got exactly one case tag")
