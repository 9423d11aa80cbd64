import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oriconvex.graphs import Digraph, Graph, graph6_lines, is_complete, parse_graph6
from oriconvex.geodesic import (
    all_pairs_distances,
    convex_hull,
    extreme_vertices,
    interval_of_set,
    is_extreme,
    sinks,
    sources,
)
from oriconvex.invariants import convexity_number, geodetic_number, hull_number
from oriconvex import orienters
from oriconvex.orienters import (
    ConstructionError,
    complete_graph_orientations,
    d1_from_d2,
    d2_construction,
    extreme_free_orientation,
    extreme_free_orientation_steps,
    find_edge_disjoint_induced_cycles,
    triple_selection,
)
from oriconvex.smallgraphs import connected_graphs, connected_min_degree_2
from conftest import DATA_DIR, complete_graph, cycle_graph, cycle_plus_chords, path_graph
from _oracles import (
    cycle_edges,
    is_acyclic,
    oracle_augmenting_path,
    oracle_cycle_packing,
    oracle_d2_construction,
    oracle_induced_cycles,
    oracle_triple,
)


# ---------------------------------------------------------------------------
# chordless cycle enumeration and packing


def test_c5_yields_its_single_cycle():
    assert find_edge_disjoint_induced_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]


def test_the_packing_refuses_a_graph_with_an_end_vertex():
    with pytest.raises(ValueError, match=r"^cycle packing needs minimum degree 2$"):
        find_edge_disjoint_induced_cycles(path_graph(4))


def test_k4_packs_exactly_one_triangle():
    # any two triangles of K4 share an edge
    assert find_edge_disjoint_induced_cycles(complete_graph(4)) == [(0, 1, 2)]


def test_bowtie_packs_both_triangles():
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert find_edge_disjoint_induced_cycles(bowtie) == [(0, 1, 2), (2, 3, 4)]


def test_k4_packing_searches_only_length_3(monkeypatch):
    # after the first triangle only vertex 3 has two free edges, so no free
    # 4-cycle can remain and the length-4 search is skipped
    lengths = []
    search = orienters._chordless_cycles

    def spy(g, free, length, core):
        lengths.append(length)
        return search(g, free, length, core)

    monkeypatch.setattr(orienters, "_chordless_cycles", spy)
    assert find_edge_disjoint_induced_cycles(complete_graph(4)) == [(0, 1, 2)]
    assert lengths == [3]
    lengths.clear()
    # after two triangles of K5, four vertices keep two free edges each
    assert find_edge_disjoint_induced_cycles(complete_graph(5)) == [(0, 1, 2), (0, 3, 4)]
    assert lengths == [3, 4]
    lengths.clear()
    # C5 has no triangle, so the empty length-3 pass jumps to its girth 5
    assert find_edge_disjoint_induced_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]
    assert lengths == [3, 5]


def _cycles_of_length(g, length):
    return list(orienters._chordless_cycles(g, g.adj, length, (1 << g.n) - 1))


def test_a_1000_cycle_is_found_without_deep_recursion():
    n = 1000
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    assert _cycles_of_length(g, n) == [tuple(range(n))]


def test_c4_with_chord_has_no_induced_c4():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert _cycles_of_length(g, 4) == []
    assert _cycles_of_length(g, 3) == oracle_induced_cycles(g) == [(0, 1, 2), (0, 2, 3)]


def test_enumeration_finds_every_chordless_cycle_once():
    c6 = cycle_graph(6)
    assert [_cycles_of_length(c6, k) for k in (3, 4, 5)] == [[], [], []]
    assert _cycles_of_length(c6, 6) == oracle_induced_cycles(c6) == [(0, 1, 2, 3, 4, 5)]
    k4 = complete_graph(4)
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert _cycles_of_length(k4, 3) == oracle_induced_cycles(k4) == triangles
    assert _cycles_of_length(k4, 4) == []


def test_packing_is_edge_disjoint_and_chordless():
    for n in (4, 5, 6):
        for g in connected_min_degree_2(n):
            used = set()
            for cyc in find_edge_disjoint_induced_cycles(g):
                edges = set()
                for i, u in enumerate(cyc):
                    v = cyc[(i + 1) % len(cyc)]
                    edges.add((min(u, v), max(u, v)))
                assert not (edges & used)
                used |= edges
                # chordless: only consecutive cycle vertices are adjacent
                for a, b in itertools.combinations(cyc, 2):
                    consecutive = (min(a, b), max(a, b)) in edges
                    assert g.has_edge(a, b) == consecutive


def _assert_listing_matches_the_oracle(g):
    cycles = oracle_induced_cycles(g)
    for k in range(3, g.n + 1):
        assert _cycles_of_length(g, k) == [c for c in cycles if len(c) == k], (g.edges, k)


def _assert_packing_matches_the_oracle(g):
    cycles = oracle_induced_cycles(g)
    packing = find_edge_disjoint_induced_cycles(g)
    assert packing == oracle_cycle_packing(g), g.edges
    used = set().union(*map(cycle_edges, packing))
    # maximal: every chordless cycle shares an edge with the packing
    for cyc in cycles:
        assert cycle_edges(cyc) & used, (g.edges, cyc)


def test_cycles_and_packing_match_the_oracle_on_every_min_degree_2_graph_n_up_to_7():
    lines = graph6_lines(str(DATA_DIR / "mindeg2_connected_upto_n8.g6"))
    graphs = [g for g in (parse_graph6(text) for _, text in lines) if g.n <= 7]
    assert len(graphs) == 1 + 3 + 11 + 61 + 507
    for g in graphs:
        _assert_listing_matches_the_oracle(g)
        _assert_packing_matches_the_oracle(g)


@pytest.mark.parametrize(
    "n, m", ((20, 30), (20, 40), (30, 45), (30, 60), (40, 60), (40, 80), (50, 75), (60, 63))
)
def test_cycles_and_packing_match_the_oracle_on_random_graphs(n, m):
    # searching every length costs about n times the oracle's single DFS,
    # so the listing is compared only up to n = 30; n = 50, m = 2n is left
    # out: the oracle lists some 5 * 10^4 cycles.  n = 60, m = 63 packs a
    # 11- and a 14-cycle, found after empty passes move on to the girth of
    # the free edges
    g = cycle_plus_chords(random.Random(n * 1000 + m), n, m)
    if n <= 30:
        _assert_listing_matches_the_oracle(g)
    _assert_packing_matches_the_oracle(g)


def _random_graph(rng, n, m):
    """m random edges on n vertices: any degrees, possibly disconnected."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def test_girth_is_the_least_chordless_cycle_length():
    # a shortest cycle has no chord, so the girth is the least length the
    # oracle lists (0 when it lists none)
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(3, 22)
        g = _random_graph(rng, n, rng.randint(0, min(2 * n, n * (n - 1) // 2)))
        want = min(map(len, oracle_induced_cycles(g)), default=0)
        assert orienters._girth(list(g.adj)) == want, g.edges
    for n, m in ((20, 22), (30, 33), (40, 42)):
        g = cycle_plus_chords(random.Random(m), n, m)
        assert orienters._girth(list(g.adj)) == len(oracle_induced_cycles(g)[0]), g.edges


def test_girth_finds_no_cycle_in_a_tree():
    rng = random.Random(3)
    tree = Graph.from_edges(40, [(rng.randrange(v), v) for v in range(1, 40)])
    assert orienters._girth(list(tree.adj)) == 0
    assert orienters._girth(list(path_graph(5).adj)) == 0
    assert orienters._girth(list(cycle_graph(9).adj)) == 9


def test_a_randomly_labelled_1000_cycle_orients_quickly_as_one_directed_cycle():
    # each length the free edges could not hold used to be searched in turn,
    # about cubic time in all: 21-23 s on this cycle
    perm = list(range(1000))
    random.Random(1000).shuffle(perm)
    g = Graph.from_edges(1000, [tuple(sorted((perm[i - 1], perm[i]))) for i in range(1000)])
    t0 = time.perf_counter()
    d = extreme_free_orientation(g)
    assert time.perf_counter() - t0 < 5
    succ = dict(d.arcs)
    assert len(succ) == 1000
    walk = [0]
    while len(walk) < 1000:
        walk.append(succ[walk[-1]])
    assert succ[walk[-1]] == 0 and sorted(walk) == list(range(1000))


# sha256 of repr(extreme_free_orientation(g).arcs) for the n = 1000, m = 1100
# graph below, taken before the packing skipped the empty lengths
N1000_M1100_ARCS_SHA256 = "776c414c5f08230496d1da9bc3a9559c4b7efc43062da26b2fd3309bc8e8294c"


def test_a_1000_vertex_graph_with_100_chords_orients_quickly_and_unchanged():
    g = cycle_plus_chords(random.Random(1100), 1000, 1100)
    t0 = time.perf_counter()
    d = extreme_free_orientation(g)
    assert time.perf_counter() - t0 < 5
    assert hashlib.sha256(repr(d.arcs).encode()).hexdigest() == N1000_M1100_ARCS_SHA256


# the same digest for the n = 1000, m = 3000 graph below, taken while the
# packing still stopped on the free degrees and ran a girth BFS from every
# vertex: its free edges kept a 44-cycle with chords in g, so the search
# went on through some 380 empty lengths and took 29-34 s
N1000_M3000_ARCS_SHA256 = "1a855c9886402639eec96b8a6e3bab3e1dc6872d20979f3d3fed9472e0935926"


def test_a_1000_vertex_graph_with_2000_chords_orients_quickly_and_unchanged():
    g = cycle_plus_chords(random.Random(3000), 1000, 3000)
    t0 = time.perf_counter()
    d = extreme_free_orientation(g)
    assert time.perf_counter() - t0 < 10
    assert hashlib.sha256(repr(d.arcs).encode()).hexdigest() == N1000_M3000_ARCS_SHA256


def test_core_peels_to_the_vertices_of_degree_two_or_more():
    # a triangle 0-1-2 with a tail 2-3-4 and a pendant 5 on 1
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 5)])
    everyone = (1 << 6) - 1
    assert orienters._core(list(g.adj), everyone, everyone) == 0b000111
    # only the vertices in todo start the peel
    assert orienters._core(list(g.adj), everyone, 1 << 0) == everyone
    # deleting 1 and peeling from its neighbours leaves no cycle
    assert orienters._core(list(g.adj), everyone & ~(1 << 1), g.adj[1]) == 0
    assert orienters._core(list(path_graph(4).adj), 0b1111, 0b1111) == 0


# ---------------------------------------------------------------------------
# extreme-free orientation


def test_c3_becomes_directed_triangle():
    d = extreme_free_orientation(cycle_graph(3))
    assert d.arcs == ((0, 1), (1, 2), (2, 0))
    assert extreme_vertices(d) == frozenset()


def test_k4_repair_produces_no_extremes():
    d = extreme_free_orientation(complete_graph(4))
    assert d.is_orientation_of(complete_graph(4))
    assert extreme_vertices(d) == frozenset()


def test_a_path_over_an_oriented_edge_runs_against_it():
    # the diamond's two triangles share the edge 12: the packing takes
    # 0 -> 1 -> 2 -> 0, and the path 1-3-2 runs against 1 -> 2, closing a
    # directed triangle through 3; along the path 3 would be extreme
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert find_edge_disjoint_induced_cycles(g) == [(0, 1, 2)]
    assert orienters._shortest_or_to_or_path(g, 0b0111) == [1, 3, 2]
    d = extreme_free_orientation(g)
    assert d.arcs == ((0, 1), (1, 2), (2, 0), (2, 3), (3, 1))
    assert extreme_vertices(d) == frozenset()
    along = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)])
    assert extreme_vertices(along) == {3}


def test_augmenting_path_is_the_least_of_every_path():
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(2, 9)
        g = _random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        touched = rng.randrange(1 << n)
        want = oracle_augmenting_path(g, touched)
        assert orienters._shortest_or_to_or_path(g, touched) == want, (g.edges, touched)


def test_end_vertex_refusal_mentions_the_obstruction():
    with pytest.raises(ValueError, match="end-vertex"):
        extreme_free_orientation(path_graph(3))


def test_the_empty_graph_is_refused_by_the_construction_itself():
    msg = "^extreme-free orientation needs minimum degree 2: the graph has no vertex$"
    with pytest.raises(ValueError, match=msg):
        extreme_free_orientation(Graph(0, ()))
    with pytest.raises(ValueError, match=msg):
        next(orienters.extreme_free_orientation_steps(Graph(0, ())))


def _permanently_non_extreme(g, out, v):
    """Arcs u -> v and v -> w exist with uw absent or already oriented w -> u."""
    for u in g.neighbors(v):
        if not out[u] >> v & 1:
            continue
        for w in g.neighbors(v):
            if w == u or not out[v] >> w & 1:
                continue
            if not g.has_edge(u, w) or out[w] >> u & 1:
                return True
    return False


def test_every_step_keeps_or_vertices_permanently_non_extreme():
    # each snapshot of out-masks adds arcs to the one before, every vertex
    # with an arc stays non-extreme, and the last snapshot orients g
    for n in (3, 4, 5, 6):
        for g in connected_min_degree_2(n):
            prev = (0,) * n
            for out in extreme_free_orientation_steps(g):
                assert out != prev and all(p & ~o == 0 for p, o in zip(prev, out)), g.edges
                touched = 0
                for x, m in enumerate(out):
                    if m:
                        touched |= m | 1 << x
                for v in range(n):
                    if touched >> v & 1:
                        assert _permanently_non_extreme(g, out, v), (g.edges, v)
                prev = out
            arcs = [(x, y) for x in range(n) for y in range(n) if prev[x] >> y & 1]
            assert Digraph.from_arcs(n, arcs).is_orientation_of(g), g.edges


def test_extreme_free_exhaustive_n_up_to_6():
    for n in (3, 4, 5, 6):
        for g in connected_min_degree_2(n):
            d = extreme_free_orientation(g)
            assert d.is_orientation_of(g)
            assert extreme_vertices(d) == frozenset()
            assert convexity_number(d)[0] < n - 1


def _assert_extreme_free_in_bounded_time(g):
    t0 = time.perf_counter()
    d = extreme_free_orientation(g)
    assert time.perf_counter() - t0 < 5
    assert d.is_orientation_of(g)
    assert extreme_vertices(d) == frozenset()


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 200), st.floats(1, 3), st.randoms(use_true_random=False))
def test_extreme_free_is_fast_on_random_graphs_up_to_200_vertices(n, ratio, rng):
    m = min(int(ratio * n), n * (n - 1) // 2)
    _assert_extreme_free_in_bounded_time(cycle_plus_chords(rng, n, m))


@pytest.mark.parametrize("n, m", ((100, 150), (200, 600)))
def test_extreme_free_is_fast_on_seeded_large_graphs(n, m):
    # n = 100, m = 150 did not finish in 280 s when the packing listed
    # every chordless cycle first
    _assert_extreme_free_in_bounded_time(cycle_plus_chords(random.Random(n + m), n, m))


def test_disconnected_min_degree_2_components_handled_together():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    d = extreme_free_orientation(g)
    assert extreme_vertices(d) == frozenset()


# ---------------------------------------------------------------------------
# induced path selection and the U-partition


def test_p3_selection_is_trivial():
    sel = triple_selection(path_graph(3))
    assert (sel.v0, sel.v1, sel.v2) == (0, 1, 2)
    assert sel.u == frozenset()


def test_selection_is_lexicographically_least():
    # middle vertex 0 has the non-adjacent neighbour pair (1, 2)
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    sel = triple_selection(g)
    assert (sel.v0, sel.v1, sel.v2) == (1, 0, 2)


def _corpus_graphs() -> list[Graph]:
    """Every graph of data/connected_n3..n7.g6 and of the md2 corpus."""
    return [
        parse_graph6(text)
        for name in ("connected_n3.g6", "connected_n4.g6", "connected_n5.g6",
                     "connected_n6.g6", "connected_n7.g6", "mindeg2_connected_upto_n8.g6")
        for _, text in graph6_lines(str(DATA_DIR / name))
    ]


def test_selection_is_the_least_induced_two_edge_path():
    incomplete = 0
    for g in _corpus_graphs():
        least = oracle_triple(g)
        if is_complete(g):
            assert least is None
            with pytest.raises(ValueError, match="complete"):
                triple_selection(g)
            continue
        sel = triple_selection(g)
        assert (sel.v1, sel.v0, sel.v2) == least, g.edges
        incomplete += 1
    assert incomplete > 9000


def test_partition_is_a_partition():
    for n in (4, 5, 6):
        for g in connected_graphs(n):
            if is_complete(g):
                continue
            sel = triple_selection(g)
            pieces = [sel.u1, sel.u2, sel.u3, sel.u4, sel.u5]
            assert frozenset().union(*pieces) == sel.u
            for a, b in itertools.combinations(pieces, 2):
                assert not (a & b)
            assert not g.has_edge(sel.v0, sel.v2)
            assert g.has_edge(sel.v0, sel.v1) and g.has_edge(sel.v1, sel.v2)


def test_complete_graph_refused():
    with pytest.raises(ValueError, match="complete"):
        d2_construction(complete_graph(4))


# ---------------------------------------------------------------------------
# D2 and D1


def test_p3_d2_and_d1():
    d2, sel = d2_construction(path_graph(3))
    assert d2.arcs == ((0, 1), (2, 1))
    assert geodetic_number(d2) == (3, (0, 1, 2))
    assert hull_number(d2)[0] == 3
    d1 = d1_from_d2(d2, sel)
    assert d1.arcs == ((0, 1), (1, 2))
    assert geodetic_number(d1)[0] == 2


def test_p4_d2_rule_table():
    d2, sel = d2_construction(path_graph(4))
    assert sel.u3 == {3}
    assert d2.arcs == ((0, 1), (2, 1), (2, 3))
    d1 = d1_from_d2(d2, sel)
    assert d1.arcs == ((0, 1), (1, 2), (3, 2))


def test_d2_structure_holds_everywhere_n_up_to_6():
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            if is_complete(g):
                continue
            d2, sel = d2_construction(g)
            assert d2.is_orientation_of(g)
            assert sel.v1 in sinks(d2)
            assert {sel.v0, sel.v2} <= sources(d2)
            for v in (sel.v0, sel.v1, sel.v2):
                assert is_extreme(d2, v)
            d1 = d1_from_d2(d2, sel)
            assert d1.underlying_graph() == g
            # v0 -> v1 -> v2 must be a geodesic of D1
            dist = all_pairs_distances(d1)
            assert dist[sel.v0][sel.v2] == 2
            assert dist[sel.v0][sel.v1] == 1 and dist[sel.v1][sel.v2] == 1


def test_d1_strictly_undercuts_d2_n_up_to_6():
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            if is_complete(g):
                continue
            d2, sel = d2_construction(g)
            d1 = d1_from_d2(d2, sel)
            assert geodetic_number(d1)[0] < geodetic_number(d2)[0]
            assert hull_number(d1)[0] < hull_number(d2)[0]


def _claims_hold(g, d2, sel, d1):
    dist2 = all_pairs_distances(d2)
    dist1 = all_pairs_distances(d1)
    full = frozenset(range(g.n))
    for r in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), r):
            if convex_hull(d2, s) != full:
                continue
            a = frozenset(s)
            b = a - {sel.v1}
            while True:
                a2 = interval_of_set(d2, dist2, a)
                b2 = interval_of_set(d1, dist1, b)
                if not a2 <= b2:
                    return False
                if a2 == a and b2 == b:
                    break
                a, b = a2, b2
    return True


def test_claims_for_all_hull_sets_n5():
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            if is_complete(g):
                continue
            d2, sel = d2_construction(g)
            assert _claims_hold(g, d2, sel, d1_from_d2(d2, sel)), g.edges


def test_u4_u5_edges_leave_u4():
    # v0=0, v1=1, v2=2; 3 in U2, 4 in U4, 5 in U5: the 4-5 edge must point
    # away from U4 or a dipath 5 -> 4 -> 3 -> 1 would reach the sink v1
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    d2, sel = d2_construction(g)
    assert sel.u4 == {4} and sel.u5 == {5}
    assert d2.has_arc(4, 5)
    dist = all_pairs_distances(d2)
    for x in sel.u3 | sel.u5:
        assert dist[x][sel.v1] == float("inf")
    assert _claims_hold(g, d2, sel, d1_from_d2(d2, sel))


def _random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A random spanning tree plus each other pair with probability p."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, sorted(edges))


def test_d2_order_matches_the_rule_table():
    graphs = _corpus_graphs()
    rng = random.Random(2003)
    for _ in range(200):
        n = rng.randint(3, 40)
        graphs.append(_random_connected_graph(rng, n, rng.choice((0.0, 0.05, 0.15, 0.4))))
    graphs = [g for g in graphs if not is_complete(g)]
    assert len(graphs) > 9000
    for g in graphs:
        d2, sel = d2_construction(g)
        expect, expect_sel = oracle_d2_construction(g)
        assert (d2.arcs, sel) == (expect.arcs, expect_sel), g.edges
        assert is_acyclic(expect), g.edges


# ---------------------------------------------------------------------------
# complete graphs


def test_complete_orientation_pair():
    for n in (3, 5):
        d_max, d_min = complete_graph_orientations(n)
        assert extreme_vertices(d_max) == frozenset(range(n))
        assert geodetic_number(d_max)[0] == n
        assert hull_number(d_max)[0] == n
        assert geodetic_number(d_min)[0] == 2
        assert hull_number(d_min)[0] == 2
        assert d_min.is_orientation_of(complete_graph(n))


def test_complete_orientations_need_three_vertices():
    with pytest.raises(ValueError):
        complete_graph_orientations(2)
