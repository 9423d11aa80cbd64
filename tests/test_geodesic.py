import itertools
import random

import pytest

from oriconvex.graphs import Digraph, enumerate_orientations, reverse
from oriconvex.geodesic import (
    UNREACHABLE,
    all_pairs_distances,
    convex_hull,
    extreme_vertices,
    interval,
    interval_of_set,
    is_convex,
    is_extreme,
    iterated_interval,
    sinks,
    sources,
)
from oriconvex.smallgraphs import all_graphs, connected_graphs
from conftest import cycle_graph

from _oracles import (
    all_digraphs,
    halved_orientations,
    oracle_distances,
    oracle_hull_by_intersection,
    random_digraph,
)

DIR_P3 = Digraph.from_arcs(3, [(0, 1), (1, 2)])
DIR_C4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
DIR_P4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# distances


def test_directed_p3_distances():
    dist = all_pairs_distances(DIR_P3)
    assert dist[0][2] == 2
    assert dist[2][0] == UNREACHABLE
    assert dist[1][1] == 0


def test_directed_c4_distances():
    dist = all_pairs_distances(DIR_C4)
    for u in range(4):
        for k in range(4):
            assert dist[u][(u + k) % 4] == k


def test_distances_match_floyd_warshall_on_random_digraphs():
    rng = random.Random(42)
    for _ in range(100):
        d = random_digraph(rng, rng.randint(1, 6))
        ours = all_pairs_distances(d)
        ref = oracle_distances(d)
        for u in range(d.n):
            for v in range(d.n):
                expect = UNREACHABLE if ref[u][v] is None else ref[u][v]
                assert ours[u][v] == expect


def test_triangle_inequality_and_arc_criterion():
    rng = random.Random(3)
    for _ in range(50):
        d = random_digraph(rng, 6)
        dist = all_pairs_distances(d)
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert (dist[u][v] == 1) == d.has_arc(u, v)
                for w in range(6):
                    if dist[u][v] != UNREACHABLE and dist[v][w] != UNREACHABLE:
                        assert dist[u][w] <= dist[u][v] + dist[v][w]


# ---------------------------------------------------------------------------
# intervals


def test_interval_of_vertex_with_itself():
    assert interval(DIR_P3, all_pairs_distances(DIR_P3), 1, 1) == {1}


def test_directed_p3_interval_is_symmetric_by_definition():
    dist = all_pairs_distances(DIR_P3)
    assert interval(DIR_P3, dist, 0, 2) == {0, 1, 2}
    assert interval(DIR_P3, dist, 2, 0) == {0, 1, 2}


def test_mutually_unreachable_pair():
    d = Digraph.from_arcs(4, [(0, 2), (1, 2)])  # 0 and 1 both point at 2
    dist = all_pairs_distances(d)
    assert interval(d, dist, 0, 1) == {0, 1}


def test_interval_symmetry_exhaustive_small():
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            for d in halved_orientations(g):
                dist = all_pairs_distances(d)
                for u in range(n):
                    for v in range(u + 1, n):
                        assert interval(d, dist, u, v) == interval(d, dist, v, u)


def test_interval_reversal_symmetry():
    for g in connected_graphs(4):
        for d in enumerate_orientations(g):
            r = reverse(d)
            dist_d = all_pairs_distances(d)
            dist_r = all_pairs_distances(r)
            for u in range(4):
                for v in range(4):
                    assert interval(d, dist_d, u, v) == interval(r, dist_r, u, v)


def test_interval_of_set_examples():
    dist = all_pairs_distances(DIR_C4)
    assert interval_of_set(DIR_C4, dist, {2}) == {2}
    # two antipodal vertices of a directed 4-cycle span everything
    assert interval_of_set(DIR_C4, dist, {0, 2}) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        interval_of_set(DIR_C4, dist, set())


# each function of a vertex set, on DIR_P3
SET_CALLS = {
    "interval_of_set": lambda s: interval_of_set(DIR_P3, all_pairs_distances(DIR_P3), s),
    "convex_hull": lambda s: convex_hull(DIR_P3, s),
    "is_convex": lambda s: is_convex(DIR_P3, s),
    **{f"iterated_interval_{k}": lambda s, k=k: iterated_interval(DIR_P3, s, k)
       for k in range(3)},
}


@pytest.mark.parametrize("v", [7, -1])
@pytest.mark.parametrize("name", list(SET_CALLS))
def test_vertex_set_functions_reject_a_vertex_outside_the_digraph(name, v):
    # alone, where no pair reaches the check of `interval`, and beside a vertex
    for s in ([v], [0, v]):
        with pytest.raises(ValueError, match=rf"^vertex {v} outside \[0, 3\)$"):
            SET_CALLS[name](s)


def test_set_interval_is_monotone():
    rng = random.Random(9)
    for _ in range(40):
        d = random_digraph(rng, 5)
        dist = all_pairs_distances(d)
        for size in range(1, 6):
            s = frozenset(rng.sample(range(5), size))
            assert s <= interval_of_set(d, dist, s)


def test_iterated_interval():
    assert iterated_interval(DIR_P4, {0, 3}, 0) == {0, 3}
    assert iterated_interval(DIR_P4, {0, 3}, 1) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        iterated_interval(DIR_P4, {0}, -1)
    with pytest.raises(ValueError):
        iterated_interval(DIR_P4, set(), 1)


# ---------------------------------------------------------------------------
# hulls and convexity


def test_hull_of_everything_is_everything():
    assert convex_hull(DIR_C4, range(4)) == {0, 1, 2, 3}


def test_directed_p4_hull_closes_in_one_step():
    assert convex_hull(DIR_P4, {0, 3}) == {0, 1, 2, 3}


def test_hull_equals_intersection_of_convex_supersets():
    rng = random.Random(17)
    digraphs = [random_digraph(rng, n) for n in (3, 4, 5) for _ in range(25)]
    for d in digraphs:
        for size in range(1, d.n + 1):
            for s in itertools.combinations(range(d.n), size):
                assert convex_hull(d, s) == oracle_hull_by_intersection(d, s)


def test_hull_with_a_given_distance_matrix_matches_the_hull_without():
    hulls = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for d in enumerate_orientations(g):
                dist = all_pairs_distances(d)
                for size in range(1, n + 1):
                    for s in itertools.combinations(range(n), size):
                        assert convex_hull(d, s, dist) == convex_hull(d, s), (d.arcs, s)
                        hulls += 1
    assert hulls == 2560  # (2^n - 1) subsets of each of the orientations


def test_hull_rejects_a_distance_matrix_of_another_order():
    with pytest.raises(ValueError, match="3 rows for 4 vertices"):
        convex_hull(DIR_C4, {0, 2}, all_pairs_distances(DIR_P3))


def test_hull_is_idempotent_and_convex():
    rng = random.Random(23)
    for _ in range(60):
        d = random_digraph(rng, rng.randint(2, 6))
        s = frozenset(rng.sample(range(d.n), rng.randint(1, d.n)))
        h = convex_hull(d, s)
        assert convex_hull(d, h) == h
        assert is_convex(d, h)


def test_is_convex_basics():
    assert is_convex(DIR_C4, set())
    assert is_convex(DIR_C4, range(4))
    assert is_convex(DIR_C4, {1})
    # an adjacent pair on a directed cycle leaks through the long way back
    assert not is_convex(DIR_C4, {0, 1})


# ---------------------------------------------------------------------------
# extreme vertices


def test_transitive_tournament_every_vertex_extreme():
    tt = Digraph.from_arcs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert extreme_vertices(tt) == {0, 1, 2, 3}


def test_directed_triangle_no_vertex_extreme():
    tri = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert extreme_vertices(tri) == frozenset()


def test_sources_and_sinks_are_extreme():
    d = DIR_P3
    assert sources(d) == {0}
    assert sinks(d) == {2}
    assert is_extreme(d, 0) and is_extreme(d, 2)
    assert not is_extreme(d, 1)


def _never_interior(d, dist, v):
    for u in range(d.n):
        for w in range(d.n):
            if v in (u, w) or dist[u][w] == UNREACHABLE:
                continue
            if (
                dist[u][v] != UNREACHABLE
                and dist[v][w] != UNREACHABLE
                and dist[u][v] + dist[v][w] == dist[u][w]
                and dist[u][v] >= 1
                and dist[v][w] >= 1
            ):
                return False
    return True


def _check_three_way(d):
    dist = all_pairs_distances(d)
    everything = frozenset(range(d.n))
    for v in range(d.n):
        a = is_extreme(d, v)
        b = is_convex(d, everything - {v})
        c = _never_interior(d, dist, v)
        assert a == b == c, (d.arcs, v, a, b, c)


def test_extreme_three_way_equivalence_all_digraphs_n_up_to_4():
    for n in (1, 2, 3, 4):
        for d in all_digraphs(n):
            _check_three_way(d)


def test_extreme_three_way_equivalence_orientations_n5():
    for g in connected_graphs(5):
        for d in halved_orientations(g):
            _check_three_way(d)


def test_extreme_three_way_equivalence_random_general_n5():
    rng = random.Random(77)
    for _ in range(500):
        _check_three_way(random_digraph(rng, 5))


def test_two_cycle_neighbour_is_no_obstruction():
    # 0 <-> 1 only: a 1-1 geodesic has length zero, so 0 is extreme
    d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert is_extreme(d, 0) and is_extreme(d, 1)
