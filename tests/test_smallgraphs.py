import itertools
import random

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from oriconvex import smallgraphs
from oriconvex.graphs import encode_graph6, is_connected, min_degree
from oriconvex.smallgraphs import all_graphs, connected_graphs, connected_min_degree_2, trees
from conftest import DATA_DIR

# published counts: all graphs / connected graphs up to isomorphism
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


@pytest.mark.parametrize("n", list(range(1, 9)))
def test_counts_match_published_values(n):
    assert len(all_graphs(n)) == ALL_COUNTS[n]
    assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]
    assert len(trees(n)) == TREE_COUNTS[n]


def test_generated_graphs_are_pairwise_non_isomorphic_n6():
    # bucket by an isomorphism invariant (the edge count and the sorted
    # degree sequence), then decide each bucket exactly with networkx's VF2
    # as the independent oracle
    buckets = {}
    for g in all_graphs(6):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        key = (g.m, tuple(sorted(a.bit_count() for a in g.adj)))
        buckets.setdefault(key, []).append(h)
    for members in buckets.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert not nx.is_isomorphic(a, b)


def test_connected_graphs_are_connected_and_right_order():
    for n in (3, 4, 5, 6):
        for g in connected_graphs(n):
            assert g.n == n
            assert is_connected(g)


def test_atlas_agrees_on_min_degree_2_counts():
    # independent cross-check of the filtered corpus against networkx's atlas
    by_n = {n: 0 for n in range(3, 8)}
    for ag in graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if n < 3 or not nx.is_connected(ag) or ag.number_of_nodes() == 0:
            continue
        if min(dict(ag.degree).values()) >= 2:
            by_n[n] += 1
    for n in range(3, 8):
        assert len(connected_min_degree_2(n)) == by_n[n]


def test_min_degree_2_filter():
    for g in connected_min_degree_2(5):
        assert min_degree(g) >= 2 and is_connected(g)


def _g6(graphs):
    return [encode_graph6(g) for g in graphs]


def test_generators_reproduce_the_shipped_corpora():
    # line for line: the corpora under data/ were written by these generators
    for n in range(3, 9):
        want = (DATA_DIR / f"connected_n{n}.g6").read_text().splitlines()
        assert _g6(connected_graphs(n)) == want
    want = (DATA_DIR / "trees_upto_n7.g6").read_text().splitlines()
    assert [s for n in range(3, 8) for s in _g6(trees(n))] == want
    want = (DATA_DIR / "mindeg2_connected_upto_n8.g6").read_text().splitlines()
    assert [s for n in range(3, 9) for s in _g6(connected_min_degree_2(n))] == want


def test_deterministic_generation_order():
    # defined after the tests that list n = 8: emptying the cache makes any
    # later caller list it again
    first = [encode_graph6(g) for g in connected_graphs(5)]
    smallgraphs._all_adjacencies.cache_clear()  # so the second call generates anew
    second = [encode_graph6(g) for g in connected_graphs(5)]
    assert first == second


def test_all_graphs_refuses_an_order_below_one():
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        all_graphs(0)


def _adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _relabelled(adj, perm):
    return _adjacency(len(adj), [(perm[u], perm[v]) for u in range(len(adj))
                                 for v in range(u + 1, len(adj)) if adj[u] >> v & 1])


def _nx(adj):
    h = nx.Graph()
    h.add_nodes_from(range(len(adj)))
    h.add_edges_from((u, v) for u in range(len(adj))
                     for v in range(u + 1, len(adj)) if adj[u] >> v & 1)
    return h


def _isomorphic(a, b):
    return smallgraphs._isomorphic(a, b, smallgraphs._colors(a), smallgraphs._colors(b))


def test_isomorphism_test_agrees_with_networkx_vf2():
    # pairs with equal sorted colours, the only pairs the generator compares:
    # relabelled copies of random graphs, the classes that share a colour key
    # up to n = 7 (each distinct, the second relabelled) and random regular
    # graphs, where every vertex has one colour; VF2 is the oracle
    rng = random.Random(37)
    pairs = []
    for n in range(1, 10):
        all_edges = list(itertools.combinations(range(n), 2))
        for _ in range(100):
            adj = _adjacency(n, rng.sample(all_edges, rng.randint(0, len(all_edges))))
            pairs.append((adj, _relabelled(adj, rng.sample(range(n), n))))
    for n in range(1, 8):
        buckets = {}
        for g in all_graphs(n):
            buckets.setdefault(tuple(sorted(smallgraphs._colors(g.adj))), []).append(g.adj)
        for members in buckets.values():
            pairs += [(a, _relabelled(b, rng.sample(range(n), n)))
                      for a, b in zip(members, members[1:])]
    for n, d in [(6, 3), (8, 3), (8, 4), (8, 5), (9, 2), (9, 4), (9, 6)]:
        regular = [_adjacency(n, nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)).edges)
                   for _ in range(40)]
        pairs += zip(regular, regular[1:])
    verdicts = []
    for a, b in pairs:
        assert sorted(smallgraphs._colors(a)) == sorted(smallgraphs._colors(b))
        verdicts.append(_isomorphic(a, b))
        assert verdicts[-1] == nx.is_isomorphic(_nx(a), _nx(b)), (a, b)
    assert 0 < verdicts.count(False) < verdicts.count(True)


def test_isomorphism_test_separates_graphs_of_one_colour():
    prism = _adjacency(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])
    k33 = _adjacency(6, [(u, v) for u in range(3) for v in range(3, 6)])
    c9 = _adjacency(9, [(i, (i + 1) % 9) for i in range(9)])
    triangles = _adjacency(9, [(3 * i + j, 3 * i + (j + 1) % 3)
                               for i in range(3) for j in range(3)])
    for adj in (prism, k33, c9, triangles):
        assert len(set(smallgraphs._colors(adj))) == 1
    assert not _isomorphic(prism, k33)
    assert not _isomorphic(c9, triangles)
    assert _isomorphic(c9, _relabelled(c9, [4, 7, 1, 0, 8, 3, 6, 2, 5]))
