import itertools
import pickle
import random
import string

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from oriconvex.graphs import (
    Digraph,
    EdgeBudgetError,
    Graph,
    GraphFormatError,
    encode_graph6,
    end_vertices,
    enumerate_orientations,
    is_complete,
    is_connected,
    min_degree,
    orientation_count,
    orientation_from_index,
    parse_arc_list,
    parse_edge_list,
    parse_graph6,
    reverse,
)
from oriconvex.invariants import orientable_numbers
from conftest import complete_graph, cycle_graph, path_graph

from _oracles import random_digraph


# ---------------------------------------------------------------------------
# graph6


def test_k3_encodes_as_Bw():
    k3 = complete_graph(3)
    assert encode_graph6(k3) == "Bw"
    assert parse_graph6("Bw") == k3


def test_single_vertex_is_at_sign():
    g = parse_graph6("@")
    assert g.n == 1 and g.edges == ()
    assert encode_graph6(g) == "@"


def test_b_underscore_is_single_edge_on_three_vertices():
    g = parse_graph6("B_")
    assert g.n == 3 and g.edges == ((0, 1),)


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("", "empty"),
        ("~", "long-form"),
        ("D", "truncated"),
        ("Bwz", "trailing garbage at byte 2"),
        ("B" + chr(50), "invalid graph6 data byte"),
        ("B" + chr(127), "invalid graph6 data byte"),
        ("B~", "nonzero padding"),
    ],
)
def test_parse_errors_name_the_byte(line, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph6(line)


def test_round_trip_against_atlas_via_networkx():
    # networkx is the independent encoder/decoder for the whole atlas corpus
    for ag in graph_atlas_g()[1:]:
        ag = nx.convert_node_labels_to_integers(ag)
        line = nx.to_graph6_bytes(ag, header=False).decode().strip()
        g = parse_graph6(line)
        assert g.n == ag.number_of_nodes()
        assert set(g.edges) == {(min(u, v), max(u, v)) for u, v in ag.edges()}
        assert encode_graph6(g) == line


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.randoms(use_true_random=False))
def test_round_trip_random_graphs(n, rnd):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5
    ]
    g = Graph.from_edges(n, edges)
    line = encode_graph6(g)
    assert parse_graph6(line) == g
    back = nx.from_graph6_bytes(line.encode())
    assert {(min(u, v), max(u, v)) for u, v in back.edges()} == set(g.edges)


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_p3():
    assert parse_edge_list("3\n0 1\n1 2") == path_graph(3)


# lines end at '\n' only, and only ASCII whitespace pads or splits tokens
_ASCII_ONLY_CASES = [
    ("3\n0 1\x851 2", "line 2: expected 'u v'"),
    ("3\n0 1\x0b0 5", "line 2: expected 'u v'"),
    ("3\n0 1\xa0\n1 2", "line 2: non-integer endpoint"),
    ("3\n0\xa01\n1 2", "line 2: expected 'u v'"),
    ("3\n0 \u0661\n1 2", "line 2: non-integer endpoint"),
]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("3\n0 1\n0 1", "duplicate edge"),
        ("3\n0 1\n1 0", "duplicate edge"),
        ("2\n0 2", "out of range"),
        ("2\n1 1", "self-loop"),
        ("x", "expected vertex count"),
        ("3\n0 1 2", "expected 'u v'"),
        ("", "missing vertex count"),
        ("99999999999", "vertex count 99999999999 is over the limit of 1000"),
    ] + _ASCII_ONLY_CASES,
)
def test_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


def test_edge_list_tolerates_blank_lines():
    assert parse_edge_list("\n3\n\n0 1\n\n1 2\n") == path_graph(3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("3\n0 1\n0 1", "duplicate arc"),
        ("2\n0 2", "out of range"),
        ("2\n1 1", "self-loop"),
        ("x", "expected vertex count"),
        ("3\n0 1 2", "expected 'u v'"),
        ("3\n0 x", "non-integer endpoint"),
        ("", "missing vertex count"),
        ("-1", "negative vertex count"),
        ("-1\n0 1", "negative vertex count"),
        ("1001\n0 1", "vertex count 1001 is over the limit of 1000"),
    ] + _ASCII_ONLY_CASES,
)
def test_arc_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_arc_list(text)


def test_lists_take_a_vertex_count_at_the_limit():
    assert parse_edge_list("1000").n == 1000
    assert parse_arc_list("1000\n0 999").arcs == ((0, 999),)


def test_arc_list_keeps_both_directions():
    assert parse_arc_list("2\n1 0\n0 1").arcs == ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# parser fuzzing

_LATIN1 = st.characters(max_codepoint=255)
_G6_TEXT = st.one_of(
    st.text(_LATIN1, max_size=20),
    # a header byte for n <= 10 and a few data bytes: often valid graph6
    st.builds(
        lambda pre, n, data, post: pre + chr(63 + n) + data + post,
        st.sampled_from(["", ">>graph6<<"]),
        st.integers(0, 10),
        st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=8),
        st.text("\r\n", max_size=3),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_G6_TEXT)
def test_graph6_fuzz_fails_cleanly_or_round_trips(s):
    try:
        g = parse_graph6(s)
    except GraphFormatError:
        return
    assert encode_graph6(g) == s.rstrip("\r\n").removeprefix(">>graph6<<")


_LIST_SPACE = " \t\r\x0b\x1c\x85\xa0"
_LIST_TOKEN = st.one_of(st.integers(-1, 6).map(str), st.text("0123456789-x", max_size=3))
_LIST_LINE = st.builds(
    lambda a, u, b, v, c: a + u + b + v + c,
    *(st.text(_LIST_SPACE, max_size=2), _LIST_TOKEN) * 2, st.text(_LIST_SPACE, max_size=2),
)
_LIST_TEXT = st.one_of(
    st.text("0123456789-x\n" + _LIST_SPACE, max_size=30),
    st.builds(
        lambda n, lines: "\n".join([str(n)] + lines),
        st.integers(0, 6),
        st.lists(st.one_of(_LIST_LINE, st.text(_LIST_SPACE, max_size=2)), max_size=6),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_LIST_TEXT, st.sampled_from([parse_edge_list, parse_arc_list]))
def test_list_fuzz_reads_one_pair_per_line(text, parse):
    try:
        parsed = parse(text)
    except GraphFormatError:
        return
    pairs = parsed.edges if isinstance(parsed, Graph) else parsed.arcs
    nonblank = [line for line in text.split("\n") if line.strip(string.whitespace)]
    assert len(pairs) == len(nonblank) - 1
    canonical = f"{parsed.n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    assert parse(canonical) == parsed


# ---------------------------------------------------------------------------
# predicates


def test_p3_predicates():
    p3 = path_graph(3)
    assert is_connected(p3)
    assert end_vertices(p3) == {0, 2}
    assert min_degree(p3) == 1
    assert not is_complete(p3)


def test_c4_predicates():
    c4 = cycle_graph(4)
    assert is_connected(c4)
    assert end_vertices(c4) == frozenset()
    assert min_degree(c4) == 2


def test_k4_is_complete():
    assert is_complete(complete_graph(4))


def test_disconnected_detected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


# ---------------------------------------------------------------------------
# graph construction invariants


def test_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_digraph_allows_two_cycles_but_not_loops():
    d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert d.has_arc(0, 1) and d.has_arc(1, 0)
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 1), (0, 1)])


@pytest.mark.parametrize(
    "cls, n, pairs, message",
    [
        (Graph, -1, (), "vertex count must be nonnegative"),
        (Digraph, -1, (), "vertex count must be nonnegative"),
        (Graph, 3, ((0, 3),), "edge (0,3) out of range for n=3"),
        (Graph, 3, ((-1, 2),), "edge (-1,2) out of range for n=3"),
        (Digraph, 3, ((3, 0),), "arc (3,0) out of range for n=3"),
        (Digraph, 3, ((0, -1),), "arc (0,-1) out of range for n=3"),
        (Graph, 3, ((0, 1), (2, 2)), "self-loop at vertex 2"),
        (Digraph, 3, ((1, 1),), "self-loop at vertex 1"),
        (Graph, 3, ((0, 1), (2, 1)), "edge (2,1) not normalized (need u < v)"),
        (Graph, 3, ((0, 2), (0, 1)), "edges not sorted or duplicated at (0,1)"),
        (Graph, 3, ((0, 1), (0, 1)), "edges not sorted or duplicated at (0,1)"),
        (Digraph, 3, ((1, 0), (0, 1)), "arcs not sorted or duplicated at (0,1)"),
        (Digraph, 3, ((2, 0), (2, 0)), "arcs not sorted or duplicated at (2,0)"),
    ],
)
def test_graph_and_digraph_name_the_bad_pair(cls, n, pairs, message):
    with pytest.raises(ValueError) as err:
        cls(n, pairs)
    assert str(err.value) == message


def test_is_orientation_of_needs_one_arc_per_edge_on_the_same_vertices():
    g = path_graph(3)
    assert Digraph.from_arcs(3, [(1, 0), (1, 2)]).is_orientation_of(g)
    assert not Digraph.from_arcs(4, [(1, 0), (1, 2)]).is_orientation_of(g)
    assert not Digraph.from_arcs(3, [(1, 0)]).is_orientation_of(g)
    assert not Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)]).is_orientation_of(g)
    # as many arcs as g has edges, but a 2-cycle on one of them
    assert not Digraph.from_arcs(3, [(0, 1), (1, 0)]).is_orientation_of(g)
    assert not Digraph.from_arcs(3, [(0, 2), (1, 2)]).is_orientation_of(g)


# ---------------------------------------------------------------------------
# orientations


def test_p3_orientation_counts():
    p3 = path_graph(3)
    assert len(list(enumerate_orientations(p3))) == orientation_count(p3) == 4
    # the sweep visits one orientation of each {D, reverse(D)} pair
    assert orientable_numbers(p3).orientations == 2


def test_k3_has_two_directed_triangles():
    k3 = complete_graph(3)
    all_orients = list(enumerate_orientations(k3))
    assert len(all_orients) == 8
    triangles = [
        d for d in all_orients
        if all(d.out_degree(v) == 1 and d.in_degree(v) == 1 for v in range(3))
    ]
    assert len(triangles) == 2


def test_every_orientation_has_the_right_underlying_graph():
    g = cycle_graph(4)
    for d in enumerate_orientations(g):
        assert d.is_orientation_of(g)
        assert d.underlying_graph() == g


def test_orientations_are_distinct():
    g = cycle_graph(4)
    seen = {d.arcs for d in enumerate_orientations(g)}
    assert len(seen) == 16


def test_symmetry_halving_covers_everything_up_to_reversal():
    # sweep index idx is orientation idx << 1; the complement of an index is
    # the reversed orientation
    g = cycle_graph(4)
    full = {d.arcs for d in enumerate_orientations(g)}
    swept = orientable_numbers(g).orientations
    half = [orientation_from_index(g, idx << 1) for idx in range(swept)]
    assert swept == 8
    covered = {d.arcs for d in half} | {reverse(d).arcs for d in half}
    assert covered == full
    for idx in range(16):
        assert orientation_from_index(g, idx ^ 15) == reverse(orientation_from_index(g, idx))


def test_edge_budget_refusal_names_requirement():
    g = complete_graph(7)  # 21 edges
    with pytest.raises(EdgeBudgetError) as exc:
        list(enumerate_orientations(g))
    assert exc.value.required_budget == 21
    overridden = enumerate_orientations(g, edge_budget=21)
    assert len(list(itertools.islice(overridden, 3))) == 3


def test_edge_budget_error_survives_a_pickle():
    # a worker process hands its errors back pickled
    err = EdgeBudgetError(21, 20)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is EdgeBudgetError
    assert str(back) == str(err)
    assert back.required_budget == 21


def test_orientation_index_bounds():
    g = path_graph(3)
    with pytest.raises(ValueError):
        orientation_from_index(g, 4)
    assert orientation_from_index(g, 3).arcs == ((1, 0), (2, 1))
    assert orientation_count(g) == 4


def test_edgeless_graph_has_one_orientation():
    g = Graph.from_edges(3, [])
    assert [d.arcs for d in enumerate_orientations(g)] == [()]


# ---------------------------------------------------------------------------
# reversal


def test_reverse_directed_triangle():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert reverse(d).arcs == ((0, 2), (1, 0), (2, 1))


def test_reverse_is_an_involution():
    rng = random.Random(7)
    for _ in range(50):
        d = random_digraph(rng, rng.randint(1, 7))
        assert reverse(reverse(d)) == d
