import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from oriconvex import smallgraphs
from oriconvex.graphs import encode_graph6, is_connected, min_degree, parse_graph6
from oriconvex.smallgraphs import all_graphs, connected_graphs, connected_min_degree_2, trees
from conftest import DATA_DIR

# published counts: all graphs / connected graphs up to isomorphism
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11}


@pytest.mark.parametrize("n", list(range(1, 8)))
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


def test_deterministic_generation_order():
    first = [encode_graph6(g) for g in connected_graphs(5)]
    smallgraphs._all_adjacencies.cache_clear()  # so the second call generates anew
    second = [encode_graph6(g) for g in connected_graphs(5)]
    assert first == second


def _g6(graphs):
    return [encode_graph6(g) for g in graphs]


def test_generators_reproduce_the_shipped_corpora():
    # line for line: the corpora under data/ were written by these generators
    for n in range(3, 8):
        want = (DATA_DIR / f"connected_n{n}.g6").read_text().splitlines()
        assert _g6(connected_graphs(n)) == want
    want = (DATA_DIR / "trees_upto_n7.g6").read_text().splitlines()
    assert [s for n in range(3, 8) for s in _g6(trees(n))] == want
    md2 = [s for n in range(3, 8) for s in _g6(connected_min_degree_2(n))]
    want = (DATA_DIR / "mindeg2_connected_upto_n8.g6").read_text().splitlines()
    assert md2 == want[:len(md2)]
    assert chr(63 + 8) == want[len(md2)][0]  # the n = 8 layer follows


def test_the_shipped_n8_corpus_is_consistent_with_the_min_degree_2_corpus():
    # generating n = 8 takes half a minute, so tier-1 checks the file by its
    # count and against the min-degree-2 layer, which the same generator wrote
    # in the same order; CI regenerates it byte for byte
    lines = (DATA_DIR / "connected_n8.g6").read_text().splitlines()
    assert len(lines) == len(set(lines)) == 11117
    graphs = [parse_graph6(s) for s in lines]
    assert all(g.n == 8 and is_connected(g) for g in graphs)
    md2 = (DATA_DIR / "mindeg2_connected_upto_n8.g6").read_text().splitlines()
    assert [s for s, g in zip(lines, graphs) if min_degree(g) >= 2] == \
        [s for s in md2 if s[0] == chr(63 + 8)]
