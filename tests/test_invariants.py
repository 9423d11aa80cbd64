import concurrent.futures
import copy
import hashlib
import inspect
import itertools
import math
import multiprocessing.process
import pickle
import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oriconvex import invariants
from oriconvex.graphs import (
    DEFAULT_EDGE_BUDGET,
    Digraph,
    EdgeBudgetError,
    Graph,
    bits,
    encode_graph6,
    enumerate_orientations,
    is_connected,
    mask_of,
    orientation_from_index,
    parse_graph6,
    reverse,
)
from oriconvex.geodesic import (
    all_pairs_distances,
    convex_hull,
    extreme_vertices,
    interval,
    interval_of_set,
    is_convex,
)
from oriconvex.invariants import (
    DigraphReport,
    convexity_number,
    digraph_report,
    geodetic_number,
    hull_number,
    orientable_numbers,
)
from oriconvex.orienters import (
    complete_graph_orientations,
    d1_from_d2,
    d2_construction,
    extreme_free_orientation,
)
from oriconvex.smallgraphs import connected_graphs
from oriconvex.verifier import classify_hg, complete_check, d1d2_check
from conftest import (
    DATA_DIR,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cycle_plus_chords,
    path_graph,
)

from _oracles import (
    all_digraphs,
    oracle_convex_scan,
    oracle_convexity,
    oracle_geodetic,
    oracle_hull,
    oracle_min_superset,
    oracle_orientable_numbers,
    oracle_set_interval,
    random_digraph,
    random_graph,
)


def transitive_tournament(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# per-digraph numbers


def test_transitive_tournament_needs_every_vertex():
    for n in (3, 4, 5):
        tt = transitive_tournament(n)
        assert geodetic_number(tt) == (n, tuple(range(n)))
        assert hull_number(tt) == (n, tuple(range(n)))


def test_reversed_hamiltonian_path_tournament_has_g2():
    # transitive tournament with consecutive arcs flipped: the descending
    # path is the unique (n-1) -> 0 geodesic, so {0, n-1} is geodetic; for
    # n = 3 the digraph is a directed triangle and {0, 1} already works
    for n in (3, 4, 5, 6):
        arcs = [(i + 1, i) for i in range(n - 1)]
        arcs += [(i, j) for i in range(n) for j in range(i + 2, n)]
        d = Digraph.from_arcs(n, arcs)
        count, witness = geodetic_number(d)
        assert count == 2
        assert witness == ((0, 1) if n == 3 else (0, n - 1))
        assert hull_number(d)[0] == 2
        if n <= 5:
            assert oracle_geodetic(d) == (count, witness)


def test_directed_p3():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert geodetic_number(d) == (2, (0, 2))


def test_directed_c5_hull_is_adjacent_pair():
    d = Digraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)])
    count, witness = hull_number(d)
    assert count == 2
    assert witness == (0, 1)


def test_directed_c4_convexity_is_one():
    d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert convexity_number(d) == (1, (0,))
    assert oracle_convexity(d)[0] == 1


def test_source_forces_con_n_minus_1():
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    con, witness = convexity_number(d)
    assert con == 3
    assert is_convex(d, witness)


def test_convexity_rejects_tiny():
    with pytest.raises(ValueError):
        convexity_number(Digraph.from_arcs(1, []))


def test_single_vertex_geodetic():
    d = Digraph.from_arcs(1, [])
    assert geodetic_number(d) == (1, (0,))
    assert hull_number(d) == (1, (0,))


def test_report_bundles_the_three():
    d = transitive_tournament(4)
    rep = digraph_report(d)
    assert (rep.g, rep.h, rep.con) == (4, 4, 3)
    assert rep.convexity_witness == (0, 1, 2)


def test_each_search_runs_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("search ran for another invariant")

    d = transitive_tournament(5)
    monkeypatch.setattr(invariants, "_convex_witness", refuse)
    assert geodetic_number(d) == (5, (0, 1, 2, 3, 4))
    assert hull_number(d) == (5, (0, 1, 2, 3, 4))
    with pytest.raises(AssertionError, match="another invariant"):
        convexity_number(d)
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "_geodetic_witness", refuse)
    monkeypatch.setattr(invariants, "_hull_witness", refuse)
    assert convexity_number(d) == (4, (0, 1, 2, 3))


def test_report_matches_the_three_searches():
    rng = random.Random(2718)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(2, 7))
        (g, gw), (h, hw), (con, cw) = geodetic_number(d), hull_number(d), convexity_number(d)
        assert digraph_report(d) == DigraphReport(d.n, g, h, con, gw, hw, cw)


# ---------------------------------------------------------------------------
# the per-digraph kernel cache


_SEARCHES = {
    geodetic_number: invariants._geodetic_witness,
    hull_number: invariants._hull_witness,
    convexity_number: invariants._convex_witness,
}


def _on_a_fresh_kernel(d, search):
    w = search(d.n, *invariants._kernel(d.n, d.out_masks))
    return w.bit_count(), tuple(bits(w))


def test_cached_kernels_give_the_answers_of_fresh_ones():
    # g, h and con asked in a random order over a pool of more digraphs than
    # the cache holds, so entries are evicted and hit out of order; the pool
    # has equal digraphs that are distinct objects, several digraphs of one
    # order and digraphs with 2-cycles
    rng = random.Random(2626)
    pool = [random_digraph(rng, 6, p) for p in (0.2, 0.4, 0.6)]
    pool += [Digraph.from_arcs(d.n, reversed(d.arcs)) for d in pool]
    pool += [transitive_tournament(5), reverse(transitive_tournament(5)),
             extreme_free_orientation(cycle_plus_chords(rng, 9, 14))]
    assert any(d.has_arc(u, v) and d.has_arc(v, u) for d in pool for u, v in d.arcs)
    invariants._digraph_kernel.cache_clear()
    for _ in range(300):
        d = rng.choice(pool)
        number = rng.choice(list(_SEARCHES))
        assert number(d) == _on_a_fresh_kernel(d, _SEARCHES[number]), (d.arcs, number)
        assert invariants._digraph_kernel.cache_info().currsize <= 2
    info = invariants._digraph_kernel.cache_info()
    assert info.hits and info.misses


def _count_kernels(monkeypatch):
    calls = []
    build = invariants._kernel

    def spy(n, out_masks):
        calls.append(n)
        return build(n, out_masks)

    monkeypatch.setattr(invariants, "_kernel", spy)
    invariants._digraph_kernel.cache_clear()
    return calls


def test_one_kernel_per_digraph_for_g_h_and_con_in_turn(monkeypatch):
    d = extreme_free_orientation(cycle_plus_chords(random.Random(26), 10, 20))
    calls = _count_kernels(monkeypatch)
    geodetic_number(d), hull_number(d), convexity_number(d)
    assert calls == [10]

    d2, sel = d2_construction(path_graph(6))
    d1 = d1_from_d2(d2, sel)
    calls = _count_kernels(monkeypatch)
    d1d2_check(d1, d2)
    assert calls == [6, 6]
    calls = _count_kernels(monkeypatch)
    complete_check(*complete_graph_orientations(5))
    assert calls == [5, 5]

    # the report reads its kernel through the cache too
    calls = _count_kernels(monkeypatch)
    digraph_report(d)
    convexity_number(d)
    assert calls == [10]


def test_the_searches_do_not_write_to_the_kernel():
    rng = random.Random(2627)
    ds = [random_digraph(rng, rng.randint(2, 12), rng.choice((0.15, 0.3, 0.5, 0.8)))
          for _ in range(40)]
    ds += [extreme_free_orientation(cycle_plus_chords(rng, n, 2 * n)) for n in range(6, 13)]
    # the symmetric cycle: 2-cycles and no extreme vertex
    ds.append(Digraph.from_arcs(8, [a for v in range(8) for a in ((v, (v + 1) % 8),
                                                                  ((v + 1) % 8, v))]))
    searched_xfree = 0
    for d in ds:
        iv, ext = invariants._kernel(d.n, d.out_masks)
        searched_xfree += not ext
        for search in _SEARCHES.values():
            before = copy.deepcopy(iv)
            search(d.n, iv, ext)
            assert iv == before, (d.arcs, search.__name__)
    assert searched_xfree >= 8


# ---------------------------------------------------------------------------
# the kernel against the frozenset reference in geodesic.py


def _assert_kernel_matches_reference(d):
    iv, ext = invariants._kernel(d.n, d.out_masks)
    dist = all_pairs_distances(d)
    for u in range(d.n):
        for v in range(d.n):
            assert iv[u][v] == mask_of(interval(d, dist, u, v)), (d.arcs, u, v)
    assert ext == mask_of(extreme_vertices(d)), d.arcs


def test_kernel_matches_reference_on_every_small_digraph():
    for n in range(1, 5):
        for d in all_digraphs(n):
            _assert_kernel_matches_reference(d)


def test_kernel_matches_reference_on_random_digraphs():
    # sparse draws leave unreachable pairs, dense ones many 2-cycles
    rng = random.Random(6061)
    for _ in range(300):
        n, p = rng.randint(1, 9), rng.choice((0.1, 0.25, 0.5, 0.8))
        _assert_kernel_matches_reference(random_digraph(rng, n, p))


# ---------------------------------------------------------------------------
# oracle equivalence (the full criterion-9 scale lives in test_acceptance)


def test_seeded_search_matches_unseeded_oracle_n4():
    for g in connected_graphs(4):
        for d in enumerate_orientations(g):
            assert geodetic_number(d) == oracle_geodetic(d)
            assert hull_number(d) == oracle_hull(d)
            assert convexity_number(d) == oracle_convexity(d)


def test_seeded_search_matches_oracle_on_general_digraphs():
    rng = random.Random(4242)
    for _ in range(60):
        d = random_digraph(rng, rng.randint(2, 6))
        assert geodetic_number(d) == oracle_geodetic(d)
        assert hull_number(d) == oracle_hull(d)
        assert convexity_number(d) == oracle_convexity(d)


# ---------------------------------------------------------------------------
# the g and h searches: the prefix-extension walk against the plain scan


_STATES = {"_geodetic_witness": oracle_set_interval, "_hull_witness": invariants._hull_mask}


def _assert_g_and_h_searches_match_the_scan(d, seeds, monkeypatch):
    n = d.n
    full = (1 << n) - 1
    iv, ext = invariants._kernel(n, d.out_masks)
    walk = invariants._min_superset
    for name, state_of in _STATES.items():

        def checked(n_, seed, grow):
            # the state the walk carries to each set it visits is that set's,
            # and the walk lists each vertex of the set once
            def grow_checked(members, state, v):
                assert len(set(members)) == len(members), (d.arcs, name, members)
                nxt = grow(members, state, v)
                assert nxt == state_of(iv, mask_of(members) | 1 << v), (d.arcs, name, members, v)
                return nxt
            return walk(n_, seed, grow_checked)

        monkeypatch.setattr(invariants, "_min_superset", checked)
        for seed in (ext, *seeds):
            want = oracle_min_superset(n, seed, lambda s: state_of(iv, s) == full)
            assert getattr(invariants, name)(n, iv, seed) == want, (d.arcs, name, seed)
        monkeypatch.undo()


def test_g_and_h_searches_match_the_scan_on_every_small_digraph(monkeypatch):
    # n = 1 and 2, two-cycles and unreachable pairs; seed 0 is the seed of
    # an extreme-free digraph, and a seed of V passes at once
    for n in range(1, 4):
        for d in all_digraphs(n):
            _assert_g_and_h_searches_match_the_scan(d, range(1 << n), monkeypatch)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from((0.15, 0.3, 0.5, 0.8)),
       st.randoms(use_true_random=False))
def test_g_and_h_searches_match_the_scan_on_random_digraphs(n, p, rng):
    d = random_digraph(rng, n, p)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_g_and_h_searches_match_the_scan(
            d, (0, (1 << n) - 1, rng.randrange(1 << n)), monkeypatch)


def test_g_and_h_searches_match_the_scan_on_extreme_free_orientations(monkeypatch):
    rng = random.Random(9012)
    for n in range(10, 13):
        d = extreme_free_orientation(cycle_plus_chords(rng, n, 3 * n))
        assert not invariants._kernel(n, d.out_masks)[1]
        _assert_g_and_h_searches_match_the_scan(d, (), monkeypatch)


def test_superset_walk_visits_candidates_in_combinations_order():
    # a state that is V on an arbitrary family of sets, not an upward
    # closed one, so the first hit shows the order the candidates came in;
    # the empty set is left out, as its state is the fold's start and never
    # V for n >= 1
    rng = random.Random(3301)
    for _ in range(300):
        n = rng.randint(1, 8)
        full = (1 << n) - 1
        family = set(rng.sample(range(1, 1 << n), min(rng.randint(0, 6), full))) | {full}
        seed = rng.randrange(1 << n) & rng.randrange(1 << n)

        def grow(members, state, v):
            return full if mask_of(members) | 1 << v in family else 0

        want = oracle_min_superset(n, seed, family.__contains__)
        assert invariants._min_superset(n, seed, grow) == want, (n, seed, family)


# g, h and con of 24 extreme-free orientations of conftest.cycle_plus_chords
# graphs, 8 each of n = 12, 13, 14 with m = 3n (random.Random(1214)):
# sha256 of the repr of their [(g, h, con)] results, witnesses included
XFREE_N14_SEARCHES_SHA256 = "4c22adb0af7d24ded1a12679a272b0c6fbe3c7fd29df3eb49aa00a679e2a3805"


def test_large_searches_keep_their_pinned_witnesses():
    rng = random.Random(1214)
    ds = [extreme_free_orientation(cycle_plus_chords(rng, n, 3 * n))
          for _ in range(8) for n in (12, 13, 14)]
    res = [(geodetic_number(d), hull_number(d), convexity_number(d)) for d in ds]
    assert hashlib.sha256(repr(res).encode()).hexdigest() == XFREE_N14_SEARCHES_SHA256


# con of 82 extreme-free orientations of conftest.cycle_plus_chords graphs,
# n = 20..60 with m = 3n // 2 and 3n each (random.Random(2060)): sha256 of
# the repr of their [convexity_number(d)] results, witnesses included
XFREE_N60_CON_SHA256 = "4521d8452be58246873269a258564d7bd7d8a98bf4f4ca7773ba66e9053be33a"


def test_con_of_large_extreme_free_orientations_keeps_its_pinned_witnesses():
    rng = random.Random(2060)
    ds = [extreme_free_orientation(cycle_plus_chords(rng, n, m))
          for n in range(20, 61) for m in (3 * n // 2, 3 * n)]
    res = [convexity_number(d) for d in ds]
    for d, (con, cw) in zip(ds, res):
        assert con < d.n - 1 and is_convex(d, cw), d.arcs
    assert hashlib.sha256(repr(res).encode()).hexdigest() == XFREE_N60_CON_SHA256


def disjoint_triangles(k):
    """k disjoint directed triangles: no extreme vertex, and g = h = 2k."""
    return Digraph.from_arcs(3 * k, [(3 * i + a, 3 * i + (a + 1) % 3)
                                     for i in range(k) for a in range(3)])


def test_a_scan_past_its_limit_raises_and_names_the_size():
    # 67 triangles: every set of 1..3 vertices fails, and the 201 vertices
    # give C(201, 4) = 65,998,350 sets of size 4, over the limit of 2^24
    d = disjoint_triangles(67)
    with pytest.raises(invariants.ScanBudgetError) as exc:
        geodetic_number(d)
    assert (exc.value.size, exc.value.count) == (4, math.comb(201, 4))
    assert str(exc.value) == (
        "the exact g or h search would test 65998350 candidate sets of size 4 "
        "(every smaller set failed), over its limit of 16777216")
    # the h scan is bounded alike, here under a lower limit
    with mock.patch.object(invariants, "_SCAN_LIMIT", 100):
        with pytest.raises(invariants.ScanBudgetError) as exc:
            hull_number(disjoint_triangles(5))
    assert (exc.value.size, exc.value.count) == (2, math.comb(15, 2))
    # a scan within the limit is not refused
    assert geodetic_number(disjoint_triangles(4)) == (8, (0, 1, 3, 4, 6, 7, 9, 10))


def test_scan_budget_error_survives_a_pickle():
    # a worker process hands its errors back pickled
    err = invariants.ScanBudgetError(6, math.comb(60, 6))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is invariants.ScanBudgetError
    assert isinstance(back, ValueError)
    assert str(back) == str(err)
    assert (back.size, back.count) == (6, 50063860)


# ---------------------------------------------------------------------------
# the con search: the upward walk alone, and with the shortcut, against the scan


class _ReadRows(list):
    """The interval matrix, noting each row the walk itself reads: the
    first hull round of a candidate reads that candidate's row."""

    def __init__(self, iv, events):
        super().__init__(iv)
        self.events = events

    def __getitem__(self, v):
        self.events.append(("try", v))
        return super().__getitem__(v)


def _up_walk_hulls(d):
    """Run the upward walk on d, checking each candidate's hull against the
    full one and the walk's bookkeeping.

    Returns the answer, the sets the walk extends, in order (each logged
    where the walk lists its members; its other `bits` calls and those of
    `_hull_mask` are not logged), each candidate it tried, as (set with the
    candidate, set, outcome), and each `_hull_mask` call, as (smask,
    convex, stop).  A
    candidate's outcome is that of its first hull round, taken inline:
    "convex" (it adds no vertex), "V", "below" (it meets a vertex below the
    candidate outside the set) or "forbidden" (it meets a forbidden
    vertex); or "resumed", when the walk calls `_hull_mask` for the rest.
    """
    n = d.n
    iv, _ = invariants._kernel(n, d.out_masks)
    hull = invariants._hull_mask
    full = (1 << n) - 1
    events = []
    lines, start = inspect.getsourcelines(invariants._convex_up)
    [members_line] = [start + i for i, line in enumerate(lines) if "members = bits(" in line]

    def listed(mask):
        caller = sys._getframe(1)
        if caller.f_code is invariants._convex_up.__code__ and caller.f_lineno == members_line:
            events.append(("node", mask))
        return bits(mask)

    def spy(rows, smask, convex=0, stop=0):
        h = hull(iv, smask, convex, stop)
        events.append(("call", smask, convex, stop, h))
        return h

    with mock.patch.object(invariants, "bits", listed), \
            mock.patch.object(invariants, "_hull_mask", spy):
        got = invariants._convex_up(n, _ReadRows(iv, events))

    nodes, tries, calls, forbidden = [], [], [], []
    c = None
    for i, (kind, *args) in enumerate(events):
        if kind == "node":
            c = args[0]
            nodes.append(c)
        elif kind == "call":
            calls.append(tuple(args[:3]))
        else:
            v = args[0]
            b = 1 << v
            assert c is not None and not c & b, d.arcs
            first = c | b
            for u in bits(c):
                first |= iv[v][u]
            true = hull(iv, c | b)
            below = (b - 1) & ~c
            assert not first & ~true, d.arcs
            nxt = events[i + 1] if i + 1 < len(events) else ("end",)
            if nxt[0] == "call":
                smask, convex, stop, h = nxt[1:]
                # the call resumes the hull at its second round: the first
                # round settled nothing, and it holds the intervals of the
                # pairs inside c | b (the precondition of _hull_mask)
                assert (smask, convex) == (first, c | b), d.arcs
                assert first not in (c | b, full) and not first & stop, d.arcs
                assert oracle_set_interval(iv, c | b) & ~smask == 0, d.arcs
                # the stop mask is the forbidden vertices plus those below
                # the candidate outside c
                assert stop & below == below, d.arcs
                forb = stop & ~below
                assert not h & ~true, d.arcs
                whole = h == full or bool(h & forb)
                if whole:
                    # a hull that is V or meets a forbidden vertex must really be V
                    assert true == full, d.arcs
                elif h & below:
                    # a hull cut below the candidate must really leave the prefix
                    assert (true ^ c) & (b - 1), d.arcs
                else:
                    # an uncut hull is the whole hull, and is V only when taken so
                    assert h == true and true != full, d.arcs
                outcome = "resumed"
            elif first == full:
                outcome, whole = "V", True
            elif first == c | b:
                assert true == c | b, d.arcs
                outcome, whole = "convex", False
            elif first & below:
                assert (true ^ c) & (b - 1), d.arcs
                outcome, whole = "below", False
            else:
                # settled with no call, yet neither V, convex nor cut: it met
                # a forbidden vertex, so the hull is V
                assert true == full, d.arcs
                outcome, whole = "forbidden", True
            # a vertex whose hull with a set is V is not tried again with a
            # superset of that set
            assert not any(fv == v and not fc & ~c for fc, fv in forbidden), d.arcs
            if whole:
                forbidden.append((c, v))
            tries.append((c | b, c, outcome))
    # each set the walk extends is convex and proper and is extended once,
    # and each candidate is tried once with it
    assert len(set(nodes)) == len(nodes), d.arcs
    for c in nodes:
        assert c != full and oracle_set_interval(iv, c) == c, d.arcs
    assert len({(s, c) for s, c, _ in tries}) == len(tries), d.arcs
    return got, nodes, tries, calls


def _assert_con_search_matches_the_scan(d):
    """Check the walk (see `_up_walk_hulls`) and the search against the
    scan; return the candidates the walk tried."""
    n = d.n
    iv, ext = invariants._kernel(n, d.out_masks)
    want = oracle_convex_scan(n, iv, ext)
    # the walk alone also meets digraphs the extreme-vertex shortcut answers
    got, _, tries, _ = _up_walk_hulls(d)
    assert got == want, d.arcs
    assert invariants._convex_witness(n, iv, ext) == want, d.arcs
    return tries


def test_con_search_matches_the_scan_on_every_small_digraph():
    # two-cycles, unreachable pairs and digraphs with or without extreme vertices
    for n in range(2, 5):
        for d in all_digraphs(n):
            _assert_con_search_matches_the_scan(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.sampled_from((0.15, 0.3, 0.5, 0.8)),
       st.randoms(use_true_random=False))
def test_con_search_matches_the_scan_on_random_digraphs(n, p, rng):
    _assert_con_search_matches_the_scan(random_digraph(rng, n, p))


@pytest.mark.parametrize("n", range(10, 15))
def test_con_search_matches_the_scan_on_extreme_free_orientations(n):
    # no extreme vertex, so the shortcut never fires and the walk answers
    rng = random.Random(8000 + n)
    for _ in range(2):
        d = extreme_free_orientation(cycle_plus_chords(rng, n, 3 * n))
        assert not invariants._kernel(n, d.out_masks)[1]
        _assert_con_search_matches_the_scan(d)


def test_up_walk_cuts_a_subtree_that_can_only_tie():
    # with no arc every subset is convex: {0, 1} is found first, so the
    # subtrees of {0, 2}, {1} and {2} cannot beat it and take no hull; every
    # first round settles its candidate, so no hull is resumed
    got, nodes, tries, calls = _up_walk_hulls(Digraph.from_arcs(3, []))
    assert got == 0b011
    assert nodes == [0, 0b001, 0b011]
    assert tries == [(0b001, 0, "convex"), (0b010, 0, "convex"), (0b100, 0, "convex"),
                     (0b011, 0b001, "convex"), (0b101, 0b001, "convex"),
                     (0b111, 0b011, "V")]
    assert calls == []


def test_up_walk_stops_a_child_hull_below_its_candidate():
    # 0 -> 1 -> 3 and 0 -> 2 -> 3 closed by 3 -> 0, so no vertex is extreme:
    # hull({1, 3}) and hull({2, 3}) are V, but each stops once it holds 0,
    # a vertex below 3 outside {1} or {2}, before it takes the other one;
    # the first round already holds 0, so neither is resumed
    d = Digraph.from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    iv, ext = invariants._kernel(4, d.out_masks)
    assert not ext
    hull = invariants._hull_mask
    assert hull(iv, 0b1010) == 0b1111
    assert hull(iv, 0b1010, 0b0010, 0b0101) == 0b1011
    got, nodes, tries, calls = _up_walk_hulls(d)
    assert got == oracle_convex_scan(4, iv, ext) == 0b0001
    assert nodes == [0, 0b0001, 0b0010, 0b0100]
    assert tries == [(0b0001, 0, "convex"), (0b0010, 0, "convex"), (0b0100, 0, "convex"),
                     (0b1000, 0, "convex"),
                     (0b0011, 0b0001, "resumed"), (0b0101, 0b0001, "resumed"),
                     (0b1001, 0b0001, "V"),
                     (0b0110, 0b0010, "V"), (0b1010, 0b0010, "below"),
                     (0b1100, 0b0100, "below")]
    assert calls == [(0b1011, 0b0011, 0), (0b1101, 0b0101, 0b0010)]


def test_hull_of_a_convex_set_plus_vertices_matches_the_reference():
    rng = random.Random(47)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(2, 7), rng.choice((0.2, 0.4, 0.7)))
        iv, _ = invariants._kernel(d.n, d.out_masks)
        convex = [c for c in range(1 << d.n) if oracle_set_interval(iv, c) == c]
        for c in rng.sample(convex, min(6, len(convex))):
            for extra in rng.sample(range(1, 1 << d.n), min(12, (1 << d.n) - 1)):
                s = c | extra
                want = mask_of(convex_hull(d, tuple(bits(s))))
                assert invariants._hull_mask(iv, s, c) == want == invariants._hull_mask(iv, s)


def test_hull_resumed_after_a_first_round_matches_the_reference():
    # the con walk runs the first round of hull(c | {b}) itself and resumes
    # _hull_mask from it, with c | b as the part whose pairs it holds
    rng = random.Random(4711)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(2, 7), rng.choice((0.2, 0.4, 0.7)))
        n = d.n
        iv, _ = invariants._kernel(n, d.out_masks)
        convex = [c for c in range(1 << n) if oracle_set_interval(iv, c) == c]
        for c in rng.sample(convex, min(8, len(convex))):
            for v in (v for v in range(n) if not c >> v & 1):
                first = c | 1 << v
                for u in bits(c):
                    first |= iv[v][u]
                want = mask_of(convex_hull(d, tuple(bits(c | 1 << v))))
                assert invariants._hull_mask(iv, first, c | 1 << v) == want, (d.arcs, c, v)


@pytest.mark.parametrize("n, arcs, outcomes", [
    # no arc: every first round adds nothing, until c | b is V
    (3, (), {"convex", "V"}),
    # a directed triangle on 1, 2, 3: hull({1, 2}) takes a second round, and
    # the first round of hull({1, 3}) already holds 2, below 3 outside {1}
    (4, ((1, 2), (2, 3), (3, 1)), {"convex", "V", "resumed", "below"}),
    # the first round of hull({0, 2, 3}) meets 4, forbidden since
    # hull({0, 4}) = V, and not 1, the vertex below 3 outside {0, 2}
    (5, ((0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (3, 4), (4, 1), (4, 2), (4, 3)),
     {"convex", "V", "resumed", "below", "forbidden"}),
])
def test_up_walk_settles_each_first_round_outcome(n, arcs, outcomes):
    tries = _assert_con_search_matches_the_scan(Digraph.from_arcs(n, arcs))
    assert {outcome for _, _, outcome in tries} == outcomes


def test_up_walk_resumes_few_hulls_on_the_search_benchmark_digraphs():
    # the 24 digraphs of the search benchmark's seed 0: the first hull
    # round, taken inline, settles all but 311 of the climb's candidates
    # (2,352 _hull_mask calls when every hull went through it)
    rng = random.Random(0)
    ds = [extreme_free_orientation(cycle_plus_chords(rng, n, 3 * n))
          for _ in range(8) for n in (12, 13, 14)]
    hull = invariants._hull_mask
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return hull(*args)

    with mock.patch.object(invariants, "_hull_mask", spy):
        for d in ds:
            invariants._convex_up(d.n, invariants._kernel(d.n, d.out_masks)[0])
    assert len(calls) == 311


def test_con_of_an_extreme_free_digraph_with_24_vertices_returns_quickly():
    # the scan would test about 2^24 subsets here
    g = cycle_plus_chords(random.Random(24), 24, 72)
    d = extreme_free_orientation(g)
    t0 = time.perf_counter()
    con, cw = convexity_number(d)
    assert time.perf_counter() - t0 < 2
    assert not extreme_vertices(d)
    assert 0 < con == len(cw) < 23
    assert is_convex(d, cw)
    everything = frozenset(range(24))
    for v in everything - set(cw):
        assert convex_hull(d, cw + (v,)) == everything


# ---------------------------------------------------------------------------
# reversal invariance


def test_invariants_survive_reversal():
    rng = random.Random(11)
    for _ in range(100):
        d = random_digraph(rng, rng.randint(2, 7))
        r = reverse(d)
        assert geodetic_number(d)[0] == geodetic_number(r)[0]
        assert hull_number(d)[0] == hull_number(r)[0]
        assert convexity_number(d)[0] == convexity_number(r)[0]


# ---------------------------------------------------------------------------
# orientable numbers


def test_c5_numbers():
    nums = orientable_numbers(cycle_graph(5))
    assert nums.values() == {
        "g_min": 2, "g_max": 4, "h_min": 2, "h_max": 4, "con_min": 1, "con_max": 4,
    }


def test_k4_numbers():
    nums = orientable_numbers(complete_graph(4))
    assert (nums.g_min, nums.g_max, nums.h_min, nums.h_max) == (2, 4, 2, 4)


def test_k23_numbers():
    nums = orientable_numbers(complete_bipartite(2, 3))
    assert (nums.g_min, nums.h_min) == (2, 2)
    assert (nums.g_max, nums.h_max) == (5, 5)


def test_star_numbers_follow_end_vertex_count():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    nums = orientable_numbers(star)
    assert (nums.g_min, nums.h_min) == (3, 3)
    assert (nums.g_max, nums.h_max) == (4, 4)


def test_p3_convexity_extremes_coincide():
    nums = orientable_numbers(path_graph(3))
    assert nums.con_min == nums.con_max == 2


@st.composite
def small_connected_graphs(draw):
    """A random spanning tree on 3..6 vertices plus up to four more edges
    (at most 9 edges keeps the unpruned oracle sweep short)."""
    n = draw(st.integers(3, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(chords), unique=True, max_size=4)) if chords else []
    return Graph.from_edges(n, tree + extra)


@settings(max_examples=25, deadline=None)
@given(small_connected_graphs())
def test_pruned_sweep_matches_the_exhaustive_sweep(g):
    want = oracle_orientable_numbers(g)
    got = orientable_numbers(g)
    assert got.orientations == 2 ** (g.m - 1)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(), st.data())
def test_pruned_chunk_matches_the_exhaustive_chunk(g, data):
    # the whole sweep at any batch size 2^k, through the loop the CLI runs:
    # the running state crosses every batch boundary, and a batch may start
    # at an orientation with no extreme vertex
    k = data.draw(st.integers(0, g.m - 1))
    with mock.patch.object(invariants, "_BATCH_BITS", k):
        got = orientable_numbers(g)
    want = oracle_orientable_numbers(g)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


def _batch(g, base, k):
    """The batch of g's sweep indices base .. base + 2^k - 1, from a BFS
    over that one block."""
    (batch,) = invariants._batches(g.n, [(g.edges, base, k)])
    return batch


@pytest.mark.parametrize("seed, case", [pytest.param(s, "random", id=str(s)) for s in range(8)]
                         + [pytest.param(s, case, id=f"{case}-{s}")
                            for case in ("k0", "base0") for s in range(4)])
def test_batch_masks_match_the_scalar_kernel(seed, case):
    # bit i of each batch mask against the frozenset reference (which tests
    # d(u, y) + d(y, v) = d(u, v), a rule neither kernel uses), the scalar
    # kernel and the tests of sweep index base + i.  With base > 0 edges
    # above k take their direction from it; k0 is a batch of one index, and
    # base0 holds index 0, every edge low->high
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, rng.randint(4, 8))
        if g.m >= 4 and is_connected(g):
            break
    n, full = g.n, (1 << g.n) - 1
    k = 0 if case == "k0" else rng.randint(1, min(5, g.m - 2))
    base = 0 if case == "base0" else rng.randrange(1, 2 ** (g.m - 1 - k)) << k
    batch = _batch(g, base, k)
    witnesses = [rng.getrandbits(n) & full for _ in range(4)] + [0, full ^ 1]
    rows = {(u, v): dict(row) for u, v, row in batch.rows}
    assert sorted(rows) == list(itertools.combinations(range(n), 2))
    for i in range(2 ** k):
        d = orientation_from_index(g, (base + i) << 1)
        dist = all_pairs_distances(d)
        for (u, v), row in rows.items():
            inside = [y for y in range(n) if row.get(y, 0) >> i & 1]
            assert inside == sorted(interval(d, dist, u, v) - {u, v}), (u, v)
        assert [x for x in range(n) if batch.ext[x] >> i & 1] == sorted(extreme_vertices(d))
        iv, ext = invariants._kernel(n, d.out_masks)
        # the kernel a step reads off the batch to search: the whole matrix
        # (the line above checks ext)
        assert batch.kernel(i) == iv
        for floor in (2, 3):
            low = max(ext.bit_count(), floor)
            assert [batch.low_at_least(t, floor) >> i & 1 for t in range(n + 1)] == [
                low >= t for t in range(n + 1)]
        # some pair's interval is V exactly where g = 2
        assert batch.two >> i & 1 == (invariants._geodetic_witness(n, iv, ext).bit_count() == 2)
        for w in witnesses:
            s = w | ext
            at, covers = batch.bound(w)
            assert [at[t] >> i & 1 for t in range(n + 1)] == [
                s.bit_count() <= t for t in range(n + 1)]
            assert covers >> i & 1 == (oracle_set_interval(iv, s) == full)
            assert batch.convex(w) >> i & 1 == (oracle_set_interval(iv, w) == w)


@pytest.mark.parametrize("k", range(7))
def test_sweep_takes_the_g_min_from_the_first_index_where_g_is_2(k):
    # index 0 has g = 6 and the first of the 64 indices with g = 2 is 43, past
    # the first batch at every k < m - 1 = 6: the sweep records g = 2 there
    # from the batch's `two` mask, not from a search, and keeps its index
    g = parse_graph6("ECZg")
    assert (g.n, g.m) == (6, 7)
    with mock.patch.object(invariants, "_BATCH_BITS", k):
        got = orientable_numbers(g)
    want = oracle_orientable_numbers(g)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key
    assert (got.g_min, got.g_min_witness) == (2, orientation_from_index(g, 43 << 1))
    # once the g min is 2 no g search runs, so every one falls before the
    # batch that holds index 43
    assert got.exact_searches[0] == (1 if k == 6 else 3)
    assert geodetic_number(orientation_from_index(g, 0))[0] == 6


def _cube():
    """The 3-cube, each vertex labelled by its bits.  At sweep index 0 every
    edge runs low->high, so the 0->7 geodesics pass every vertex (index 0
    lies on `two`: g = h = 2) and 0 is a source (con = n - 1)."""
    return Graph.from_edges(8, [(x, x ^ b) for x in range(8) for b in (1, 2, 4) if x < x ^ b])


def test_a_step_records_the_values_known_exactly_with_no_kernel(monkeypatch):
    # the first step of a sweep, from the slots' start values, and a later
    # index on `two` with an extreme vertex, under a g and h min of 3 and a
    # con max of n - 1
    g = _cube()
    batch = _batch(g, 0, 4)
    assert batch.two & 1 and batch.ext[0] & 1
    later = next(i for i in range(1, 16) if batch.two >> i & ~batch.ext_at_most[0] >> i & 1)

    def no_kernel(self, i):
        raise AssertionError(f"kernel read at {i}, where no search is left")

    monkeypatch.setattr(invariants._Batch, "kernel", no_kernel)
    sweep = invariants._Sweep(g.n)
    sweep.step(batch, 0, 0, 0, 0)
    assert sweep.slots == [[2, 0, 2, 0], [2, 0, 2, 0], [7, 0, 7, 0]]
    sweep.slots = [[3, 0, 8, 0], [3, 0, 8, 0], [1, 0, 7, 0]]
    sweep.step(batch, later, 0, 0, 0)
    assert sweep.slots == [[2, later, 8, 0], [2, later, 8, 0], [1, 0, 7, 0]]
    assert (sweep.runs, sweep.kernels, sweep.recent) == ([0, 0, 0], 0, ([], []))


def _skip_walk(seed):
    """A random walk of sweep states over one batch: yields (g, k, base,
    batch, sweep) first, then once after each of eight steps of that sweep.
    Each sampled index is stepped through the batch that holds it, those
    with no extreme vertex first, so that the con max starts below n - 1
    when it can."""
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, rng.randint(5, 7))
        if g.m >= 6 and is_connected(g):
            break
    k = min(5, g.m - 2)
    base = rng.randrange(1, 2 ** (g.m - 1 - k)) << k
    batch = _batch(g, base, k)
    sweep = invariants._Sweep(g.n)

    def has_extreme(idx):
        return invariants._kernel(g.n, orientation_from_index(g, idx << 1).out_masks)[1] != 0

    yield g, k, base, batch, sweep
    for idx in sorted(rng.sample(range(2 ** (g.m - 1)), 8), key=has_extreme):
        at = idx >> k << k
        sweep.step(_batch(g, at, k), idx - at, 0, 0, 0)
        yield


@pytest.mark.parametrize("seed", range(8))
def test_batch_skips_leave_every_value_inside_the_running_range(seed):
    # in each state along the walk, wherever a skip bit is set the exact
    # value v of that index can move neither final extreme: on each side it
    # lies inside the slot's [min, max] or strictly beyond the batch's own
    # extreme, which the per-digraph searches give over every index
    walk = _skip_walk(seed)
    g, k, base, batch, sweep = next(walk)
    numbers = (geodetic_number, hull_number, convexity_number)
    values = [[number(orientation_from_index(g, (base + i) << 1))[0] for i in range(2 ** k)]
              for number in numbers]
    fired = [False] * 3

    def check():
        skips = batch.skips(sweep)
        for j, (ok, vals, (lo, _, hi, _)) in enumerate(zip(skips, values, sweep.slots)):
            for i, v in enumerate(vals):
                if ok >> i & 1:
                    fired[j] = True
                    assert (lo <= v or v > min(vals)) and (v <= hi or v < max(vals)), (
                        sweep.slots, sweep.recent, i, numbers[j].__name__)

    assert batch.skips(sweep) == (0, 0, 0)
    for _ in walk:
        check()
    # a recent g witness V covers every index and passes wherever the g max
    # is n; each h skip still needs a covering witness within the h max
    sweep.slots[0][2] = g.n
    sweep.recent[0].insert(0, (1 << g.n) - 1)
    check()
    assert fired == [True] * 3


@pytest.mark.parametrize("seed", range(8))
def test_a_recent_g_witness_never_clears_a_skip_bit(seed):
    # each covering recent g witness bounds g and h on its own, so one more
    # witness only adds skip bits: here V, at the front of the list, where it
    # covers every index once the g max is raised to n
    walk = _skip_walk(seed)
    g, _, _, batch, sweep = next(walk)
    for _ in walk:
        more = invariants._Sweep(g.n)
        more.slots = [slot[:] for slot in sweep.slots]
        more.recent = tuple(recent[:] for recent in sweep.recent)
        more.slots[0][2] = g.n
        more.recent[0].insert(0, (1 << g.n) - 1)
        (g_old, h_old, _), (g_new, h_new, _) = batch.skips(sweep), batch.skips(more)
        assert (g_old & ~g_new, h_old & ~h_new) == (0, 0), (sweep.slots, sweep.recent)


def _corpus_counts(name):
    """The runs over a shipped corpus, with the total orientations, the exact
    g, h and con searches and the kernels read off a batch."""
    lines = (DATA_DIR / f"{name}.g6").read_text().split()
    runs = [orientable_numbers(parse_graph6(ln)) for ln in lines]
    searched = tuple(sum(col) for col in zip(*(r.exact_searches for r in runs)))
    return runs, sum(r.orientations for r in runs), searched, sum(r.scalar_kernels for r in runs)


def test_exact_searches_counted_on_the_n5_corpus():
    runs, total, searched, kernels = _corpus_counts("connected_n5")
    assert (len(runs), total) == (21, 1544)
    assert searched == (30, 56, 14)
    assert all(count < total for count in searched)
    assert kernels == 75
    assert "exact_searches" not in runs[0].to_json_dict()
    assert "scalar_kernels" not in runs[0].to_json_dict()


def test_exact_searches_counted_on_the_n6_corpus():
    runs, total, searched, kernels = _corpus_counts("connected_n6")
    assert (len(runs), total) == (112, 69056)
    assert (searched, kernels) == ((234, 504, 118), 684)


# ---------------------------------------------------------------------------
# packs: the sweeps of consecutive graphs share one BFS


def _corpus(name):
    return [parse_graph6(ln) for ln in (DATA_DIR / f"{name}.g6").read_text().split()]


def _batch_state(batch):
    """Everything a batch holds that the sweep reads."""
    return (batch.n, batch.base, batch.all, batch.rows, batch.ext, batch.two,
            batch.ext_at_most, batch.lows)


def _lanes(pack):
    return sum(2 ** (g.m - 1) for g in pack)


@pytest.mark.parametrize("name", ["connected_n3", "connected_n4", "connected_n5", "connected_n6"])
def test_packed_batches_equal_the_one_block_batches(name):
    # each lane block of a shared BFS holds the masks of a BFS over that
    # block alone.  A pack is consecutive graphs of one order, as many as fit
    # in 2^12 lanes; a graph wider than one batch is a pack of its own
    graphs = _corpus(name)
    packs = list(invariants._packs(graphs, DEFAULT_EDGE_BUDGET))
    assert [g for pack in packs for g in pack] == graphs
    assert max(map(len, packs)) > 1
    cap = 2 ** invariants._BATCH_BITS
    for pack, after in zip(packs, packs[1:] + [[]]):
        if pack[0].m - 1 > invariants._BATCH_BITS:
            assert len(pack) == 1
            continue
        assert len({g.n for g in pack}) == 1 and _lanes(pack) <= cap
        if after and after[0].m - 1 <= invariants._BATCH_BITS:
            assert _lanes(pack) + _lanes(after[:1]) > cap  # the pack is full
        shared = invariants._batches(pack[0].n, [(g.edges, 0, g.m - 1) for g in pack])
        assert [_batch_state(b) for b in shared] == [
            _batch_state(_batch(g, 0, g.m - 1)) for g in pack]


@pytest.mark.parametrize("seed", range(6))
def test_a_shared_bfs_over_mixed_blocks_matches_each_block_alone(seed):
    # blocks of different graphs on one vertex set, with different m, k and
    # base (a base > 0 fixes the edges above k), side by side in one BFS
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    blocks = []
    while len(blocks) < 5:
        g = random_graph(rng, n)
        if g.m >= 2 and is_connected(g):
            k = rng.randint(0, min(6, g.m - 1))
            blocks.append((g, rng.randrange(2 ** (g.m - 1 - k)) << k, k))
    shared = invariants._batches(n, [(g.edges, base, k) for g, base, k in blocks])
    assert [_batch_state(b) for b in shared] == [
        _batch_state(_batch(g, base, k)) for g, base, k in blocks]


def _assert_same_sweeps(got, want):
    assert got == want
    assert [(r.exact_searches, r.scalar_kernels) for r in got] == [
        (r.exact_searches, r.scalar_kernels) for r in want]


@pytest.mark.parametrize("name", ["connected_n5", "connected_n6"])
def test_the_packed_sweep_equals_the_sweep_of_each_graph_alone(name):
    # values, witnesses and counters: each graph keeps its own sweep state
    graphs = _corpus(name)
    _assert_same_sweeps(list(invariants.orientable_numbers_each(graphs)),
                        [orientable_numbers(g) for g in graphs])


@pytest.mark.parametrize("name", ["connected_n5", "connected_n6"])
def test_the_sweep_across_two_workers_equals_the_serial_sweep(name):
    # values, witnesses and counters: the workers sweep the same packs
    graphs = _corpus(name)
    _assert_same_sweeps(list(invariants.orientable_numbers_each(graphs, workers=2)),
                        list(invariants.orientable_numbers_each(graphs)))


@pytest.mark.parametrize("name", ["connected_n4", "connected_n5", "connected_n6"])
def test_the_first_pack_of_a_corpus_matches_the_oracle(name):
    pack = next(invariants._packs(_corpus(name), DEFAULT_EDGE_BUDGET))
    assert len(pack) > 1
    for g, got in zip(pack, invariants.orientable_numbers_each(pack)):
        want = oracle_orientable_numbers(g)
        for key in invariants.NUMBER_KEYS:
            assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


def test_a_graph_of_one_whole_batch_fills_its_pack():
    # an m = 13 graph takes all 2^12 lanes, so it shares its BFS with neither
    # m = 12 graph around it, and those two, 2^11 lanes each, share theirs
    graphs = {text: parse_graph6(text) for text in ("F?r~o", "F?r~w", "F?zfw", "F?zVw")}
    assert [g.m for g in graphs.values()] == [12, 13, 12, 12]
    packs = list(invariants._packs(graphs.values(), DEFAULT_EDGE_BUDGET))
    assert [[encode_graph6(g) for g in pack] for pack in packs] == [
        ["F?r~o"], ["F?r~w"], ["F?zfw", "F?zVw"]]
    _assert_same_sweeps(list(invariants.orientable_numbers_each(graphs.values())),
                        [orientable_numbers(g) for g in graphs.values()])


def test_packs_are_cut_where_the_order_changes():
    trees = _corpus("trees_upto_n7")
    packs = list(invariants._packs(trees, DEFAULT_EDGE_BUDGET))
    assert [[g.n for g in pack] for pack in packs] == [
        [3], [4] * 2, [5] * 3, [6] * 6, [7] * 11]
    _assert_same_sweeps(list(invariants.orientable_numbers_each(trees)),
                        [orientable_numbers(g) for g in trees])


@pytest.mark.parametrize("name, k", [
    ("connected_n5", 1), ("connected_n5", 3), ("connected_n5", 6),
    ("trees_upto_n7", 1), ("trees_upto_n7", 3), ("trees_upto_n7", 6),
    ("connected_n6", 6),
])
def test_the_public_sweep_is_the_same_at_a_small_batch_size(name, k):
    # at 2^k lanes the packs are cut at a smaller cap, and graphs that are
    # one batch by default are swept a batch at a time, packs of their own.
    # The records must not move; the counters may, since the batch-wide
    # bounds depend on the batch
    graphs = _corpus(name)
    packs = list(invariants._packs(graphs, DEFAULT_EDGE_BUDGET))
    want = [r.to_json_dict() for r in invariants.orientable_numbers_each(graphs)]
    with mock.patch.object(invariants, "_BATCH_BITS", k):
        assert list(invariants._packs(graphs, DEFAULT_EDGE_BUDGET)) != packs
        got = [r.to_json_dict() for r in invariants.orientable_numbers_each(graphs)]
    assert got == want


def test_bfs_runs_counted_on_the_n5_and_n6_corpora(monkeypatch):
    # n = 5 is one BFS of 21 blocks; n = 6 is 12 packs and the 2 + 4 batches
    # of its two graphs wider than a batch (m = 14 and K6): 18 BFS runs over
    # the 116 blocks that were 116 BFS runs before packing
    runs = []
    real = invariants._batches
    monkeypatch.setattr(invariants, "_batches",
                        lambda n, blocks: runs.append(len(blocks)) or real(n, blocks))
    for name, want in (("connected_n5", [21]),
                       ("connected_n6", [47, 21, 7, 8, 10, 6, 3, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1])):
        runs.clear()
        list(invariants.orientable_numbers_each(_corpus(name)))
        assert runs == want, name
    assert (len(runs), sum(runs)) == (18, 116)


def test_a_refused_graph_ends_the_results_where_it_stands():
    # the graphs before a refused one come out, then its error; it is a pack
    # of its own, so the pack before it is swept whole
    graphs = _corpus("connected_n5")
    bad = next(i for i, g in enumerate(graphs) if g.m > 6)
    got = []
    with pytest.raises(EdgeBudgetError, match="graph has 7 edges, over the enumeration budget of 6"):
        for nums in invariants.orientable_numbers_each(graphs, edge_budget=6):
            got.append(nums)
    assert (bad, len(got)) == (8, 8)
    _assert_same_sweeps(got, [orientable_numbers(g) for g in graphs[:bad]])


@pytest.mark.parametrize("g", [
    Graph.from_edges(11, [(0, i) for i in range(1, 11)]),
    complete_bipartite(3, 3),
], ids=["K1,10", "K3,3"])
def test_symmetric_inputs_match_the_oracle(g):
    want = oracle_orientable_numbers(g)
    got = orientable_numbers(g)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


# the n = 7 graphs outside HG1, with their case
PARTED = [("FEqrg", "HG3"), ("FErto", "HG3"), ("FEyrg", "HG3"),
          ("F?bao", "HG4"), ("F?beo", "HG4"), ("F?bew", "HG4")]


@pytest.mark.parametrize("text, case", PARTED)
def test_graphs_where_h_and_g_part_match_the_oracle(text, case):
    # the n = 7 graphs outside HG1: the smallest where h and g part, so the
    # sweep's h bounds no longer follow its g bounds
    g = parse_graph6(text)
    got = orientable_numbers(g)
    assert classify_hg(g, numbers=got).case == case
    want = oracle_orientable_numbers(g)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


@pytest.mark.parametrize("g", [
    complete_graph(4), complete_graph(5), cycle_graph(6), complete_bipartite(3, 3),
    parse_graph6("ECZg"), *(parse_graph6(text) for text, _ in PARTED), _cube(),
], ids=["K4", "K5", "C6", "K3,3", "ECZg", *(text for text, _ in PARTED), "Q3"])
def test_sweep_matches_the_oracle_at_every_batch_size(g):
    # the skips bound values by what other indices of the batch attain, so
    # the running slot may lag inside a batch: at every k the final values
    # and least indices must still be those of the unpruned sweep.  Q3 has
    # index 0 on `two`, so its first step records g = h = 2 over the start
    # values
    want = oracle_orientable_numbers(g)
    for k in range(g.m):
        with mock.patch.object(invariants, "_BATCH_BITS", k):
            got = orientable_numbers(g)
        for key in invariants.NUMBER_KEYS:
            assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], (k, key)


def test_each_witness_orientation_is_built_once(monkeypatch):
    # the six extremes of C5 fall on fewer sweep indices, and each index
    # gives one digraph, shared by every extreme there
    g = cycle_graph(5)
    built = []
    real = invariants.orientation_from_index
    monkeypatch.setattr(invariants, "orientation_from_index",
                        lambda g, idx: built.append(idx) or real(g, idx))
    got = orientable_numbers(g)
    assert len(built) == len(set(built)) < 6
    want = oracle_orientable_numbers(g)
    for key in invariants.NUMBER_KEYS:
        assert (getattr(got, key), getattr(got, key + "_witness")) == want[key], key


def test_preconditions():
    with pytest.raises(ValueError):
        orientable_numbers(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(ValueError):
        orientable_numbers(path_graph(2))  # too small
    with pytest.raises(EdgeBudgetError):
        orientable_numbers(complete_graph(5), edge_budget=5)


def test_the_searches_and_the_report_refuse_too_few_vertices():
    for search, name in ((geodetic_number, "geodetic"), (hull_number, "hull")):
        with pytest.raises(ValueError, match=rf"^{name} number needs at least one vertex$"):
            search(Digraph(0, ()))
    for n in (0, 1):
        with pytest.raises(ValueError, match=r"^reports need at least two vertices$"):
            digraph_report(Digraph(n, ()))


class _InlinePool:
    """Stands in for `ProcessPoolExecutor`: records the pool sizes asked for
    and maps in the calling process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        future = concurrent.futures.Future()
        future.set_result(fn(job))
        return future


def _refuse_to_start(process):
    raise AssertionError(f"a process was started: {process!r}")


@pytest.mark.parametrize("cpus, want", [(4, {2: 2, 3: 3, 64: 4, 10**6: 4}),
                                        (16, {2: 2, 64: 14, 10**6: 14}),
                                        (1, {2: None, 64: None}),
                                        (None, {64: None})])
def test_the_pool_is_bounded_by_the_packs_and_the_cpus(monkeypatch, cpus, want):
    # the 112 graphs of n = 6 form 14 packs; a pool starts every process at
    # once, so `workers` is capped at the packs and the CPUs, and a cap of 1
    # runs in the calling process (None: no pool was asked for)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)
    monkeypatch.setattr(invariants.os, "cpu_count", lambda: cpus)
    graphs = _corpus("connected_n6")
    assert sum(1 for _ in invariants._packs(graphs, DEFAULT_EDGE_BUDGET)) == 14
    serial = list(invariants.orientable_numbers_each(graphs))
    for workers, size in want.items():
        _InlinePool.sizes = []
        _assert_same_sweeps(list(invariants.orientable_numbers_each(graphs, workers=workers)),
                            serial)
        assert _InlinePool.sizes == ([] if size is None else [size]), workers
    # one pack: no pool, whatever the CPUs
    _InlinePool.sizes = []
    pack = _corpus("connected_n5")
    assert list(invariants.orientable_numbers_each(pack, workers=64)) == \
        list(invariants.orientable_numbers_each(pack))
    assert _InlinePool.sizes == []


def test_witness_orientations_attain_their_numbers():
    for g in (cycle_graph(5), complete_bipartite(2, 3), path_graph(5)):
        nums = orientable_numbers(g)
        assert nums.g_min_witness.is_orientation_of(g)
        assert geodetic_number(nums.g_min_witness)[0] == nums.g_min
        assert geodetic_number(nums.g_max_witness)[0] == nums.g_max
        assert hull_number(nums.h_min_witness)[0] == nums.h_min
        assert hull_number(nums.h_max_witness)[0] == nums.h_max
        assert convexity_number(nums.con_min_witness)[0] == nums.con_min
        assert convexity_number(nums.con_max_witness)[0] == nums.con_max


def test_reported_sets_actually_cover():
    rng = random.Random(5)
    for _ in range(40):
        d = random_digraph(rng, rng.randint(2, 6))
        everything = frozenset(range(d.n))
        _, gw = geodetic_number(d)
        assert interval_of_set(d, all_pairs_distances(d), gw) == everything
        _, hw = hull_number(d)
        assert convex_hull(d, hw) == everything
        con, cw = convexity_number(d)
        assert len(cw) == con < d.n
        assert is_convex(d, cw)


def test_monotone_chains_hold():
    for n in (3, 4, 5):
        for g in connected_graphs(n):
            nums = orientable_numbers(g)
            assert nums.h_min <= nums.g_min
            assert nums.h_max <= nums.g_max
            assert nums.g_min <= nums.g_max
            assert nums.h_min <= nums.h_max
            assert nums.con_min <= nums.con_max


def test_h_at_most_g_every_orientation_n4():
    for g in connected_graphs(4):
        for d in enumerate_orientations(g):
            assert hull_number(d)[0] <= geodetic_number(d)[0]
