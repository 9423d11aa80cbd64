"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's bitmask search machinery: distances
come from Floyd-Warshall over the arc list, and the set searches enumerate
every subset by size with no pruning, deciding membership through the
public definitional interval/hull functions.  Three oracles are exceptions.
The orientation-sweep oracle runs the per-digraph searches (checked against
the oracles here) on every orientation, with none of the sweep's pruning.
The con scan and the set interval I[S] it tests run on the bitmask
interval matrix (checked against `geodesic` in test_invariants), so each
walk of the con search can be compared with it at sizes the frozenset
reference cannot reach.  The superset scan takes any test, so the g and h
searches can be compared with it on the same matrix, each candidate
tested from scratch.  The
chordless-cycle oracles list every cycle in one DFS, sort the list, and
pack greedily over all of it, where the package searches one length at a
time over the edges still free.  The augmenting-path oracle lists every
path between touched vertices and takes the least, where the package
runs one BFS per start and stops at the first hit.  The triple oracle tries every ordered
vertex triple, where the package stops at the first pair of non-adjacent
neighbours of the least possible middle vertex.  The D2 oracle orients
each edge by the paper's rule table, where the package orients along one
vertex order.
"""

from __future__ import annotations

import itertools
import random

from oriconvex.graphs import Digraph, Graph, bits, orientation_count, orientation_from_index
from oriconvex import geodesic
from oriconvex.invariants import NUMBER_KEYS, digraph_report
from oriconvex.orienters import TripleSelection, triple_selection


def oracle_distances(d: Digraph):
    """Floyd-Warshall; entries are ints or None for unreachable."""
    n = d.n
    big = None
    dist = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in d.arcs:
        dist[u][v] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                dkj = row_k[j]
                if dkj is None:
                    continue
                alt = dik + dkj
                if row_i[j] is None or alt < row_i[j]:
                    row_i[j] = alt
    return dist


def _covers(d: Digraph, dist, s, mode: str) -> bool:
    full = frozenset(range(d.n))
    if mode == "geodetic":
        return geodesic.interval_of_set(d, dist, s) == full
    return geodesic.convex_hull(d, s) == full


def oracle_min_set(d: Digraph, mode: str):
    """Smallest covering set, scanning all sizes lexicographically, unseeded."""
    dist = geodesic.all_pairs_distances(d)
    for size in range(1, d.n + 1):
        for s in itertools.combinations(range(d.n), size):
            if _covers(d, dist, s, mode):
                return size, s
    raise AssertionError("unreachable")


def oracle_geodetic(d: Digraph):
    return oracle_min_set(d, "geodetic")


def oracle_hull(d: Digraph):
    return oracle_min_set(d, "hull")


def oracle_convexity(d: Digraph):
    """Largest proper convex subset by scanning sizes downward, unseeded."""
    for size in range(d.n - 1, 0, -1):
        for s in itertools.combinations(range(d.n), size):
            if geodesic.is_convex(d, s):
                return size, s
    raise AssertionError("unreachable for n >= 2")


def oracle_set_interval(iv, smask: int) -> int:
    """I[S] on the bitmask interval matrix: S with the interval of every
    pair of its vertices ORed in, each pair taken, with no early exit."""
    verts = list(bits(smask))
    out = smask
    for i, u in enumerate(verts):
        row = iv[u]
        for v in verts[i + 1:]:
            out |= row[v]
    return out


def oracle_convex_scan(n: int, iv, ext: int) -> int:
    """The con search as a plain bitmask scan: the first subset S, by
    decreasing size and lexicographically within a size, with I[S] = S.

    Takes the arguments of `invariants._convex_witness` and ignores `ext`:
    the scan needs no extreme-vertex shortcut.  Every interval of S is
    taken, with no early exit.
    """
    for size in range(n - 1, 0, -1):
        for combo in itertools.combinations(range(n), size):
            s = 0
            for v in combo:
                s |= 1 << v
            if oracle_set_interval(iv, s) == s:
                return s
    raise AssertionError("unreachable: every singleton is convex")


def oracle_min_superset(n: int, seed: int, test) -> int:
    """The g and h searches as a plain scan: the first superset of `seed`
    passing `test`, by increasing size and lexicographically within a size.

    Every candidate is built and tested from scratch, where the package
    grows each candidate's interval or hull from its prefix's.
    """
    rest = [v for v in range(n) if not seed >> v & 1]
    for extra in range(len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            s = seed
            for v in combo:
                s |= 1 << v
            if test(s):
                return s
    raise AssertionError("unreachable: the full vertex set always passes")


def oracle_hull_by_intersection(d: Digraph, s) -> frozenset:
    """Intersection of every convex superset of s (2^n scan)."""
    s = frozenset(s)
    out = frozenset(range(d.n))
    for size in range(len(s), d.n + 1):
        for cand in itertools.combinations(range(d.n), size):
            cand = frozenset(cand)
            if s <= cand and geodesic.is_convex(d, cand):
                out &= cand
    return out


def oracle_induced_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every chordless cycle, once each, as (min vertex, smaller neighbour,
    ...), in (length, tuple) order: one DFS over every length, then a sort.

    DFS over chord-free paths rooted at the cycle's smallest vertex; a path
    may only close back to the root, and emitting only when the second
    vertex is smaller than the last fixes the traversal direction.
    """
    out = []
    adj = g.adj

    def extend(path: list[int], pathmask: int) -> None:
        a = path[0]
        tail = path[-1]
        mid_mask = pathmask & ~(1 << a) & ~(1 << tail)
        gt_a = ~((1 << (a + 1)) - 1)
        for w in bits(adj[tail] & gt_a & ~pathmask):
            wadj = adj[w]
            if wadj & mid_mask:
                continue  # chord to an interior path vertex
            if wadj >> a & 1:
                if len(path) >= 2 and path[1] < w:
                    out.append(tuple(path) + (w,))
                # extending past w would leave the chord wa inside the cycle
                continue
            path.append(w)
            extend(path, pathmask | (1 << w))
            path.pop()

    for a in range(g.n):
        for b in bits(g.adj[a] & ~((1 << (a + 1)) - 1)):
            extend([a, b], (1 << a) | (1 << b))
    out.sort(key=lambda c: (len(c), c))
    return out


def cycle_edges(cycle: tuple[int, ...]) -> set[tuple[int, int]]:
    """The edges of a cycle, each as (low, high)."""
    return {(min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])}


def oracle_cycle_packing(g: Graph) -> list[tuple[int, ...]]:
    """Greedy edge-disjoint packing over the full sorted cycle list: each
    cycle, in (length, tuple) order, is taken when no taken cycle shares an
    edge with it."""
    used: set[tuple[int, int]] = set()
    chosen = []
    for cyc in oracle_induced_cycles(g):
        es = cycle_edges(cyc)
        if not es & used:
            chosen.append(cyc)
            used |= es
    return chosen


def oracle_augmenting_path(g: Graph, touched: int) -> list[int] | None:
    """The least (length, path) over every simple path that runs from a
    touched vertex (in the mask `touched`) through one or more untouched
    vertices to another touched one, listed by a DFS; None when there is
    no such path."""
    paths = []

    def extend(path):
        for w in g.neighbors(path[-1]):
            if w in path:
                continue
            if touched >> w & 1:
                if len(path) > 1:
                    paths.append(path + [w])
            else:
                extend(path + [w])

    for start in bits(touched):
        extend([start])
    return min(paths, key=lambda p: (len(p), p), default=None)


def oracle_triple(g: Graph) -> tuple[int, int, int] | None:
    """The least (v1, v0, v2) over every induced two-edge path v0-v1-v2
    with v0 < v2, by trying every ordered vertex triple; None when g has
    no such path."""
    adjacent = [[False] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u][v] = adjacent[v][u] = True
    return min(
        (
            (v1, v0, v2)
            for v0, v1, v2 in itertools.permutations(range(g.n), 3)
            if v0 < v2 and adjacent[v1][v0] and adjacent[v1][v2] and not adjacent[v0][v2]
        ),
        default=None,
    )


def _d2_rule_directions(sel: TripleSelection, x: int, y: int) -> set[tuple[int, int]]:
    """Directions derivable for edge {x, y} from the orientation rules."""
    dirs = set()
    u = sel.u
    for a, b in ((x, y), (y, x)):
        if a in (sel.v0, sel.v2):
            dirs.add((a, b))
        if b == sel.v1:
            dirs.add((a, b))
        if a in sel.u1 and b in u and b not in sel.u1:
            dirs.add((a, b))
        if a in sel.u4 and b in sel.u2:
            dirs.add((a, b))
        if a in u and a not in sel.u3 and b in sel.u3:
            dirs.add((a, b))
        # u4 -> u5 edges are not covered by the table above, but u5 must
        # stay free of dipaths to v1, so they leave u4
        if a in sel.u4 and b in sel.u5:
            dirs.add((a, b))
    return dirs


def oracle_d2_construction(g: Graph) -> tuple[Digraph, TripleSelection]:
    """D2 by the rule table: every edge leaves v0 and v2 and every edge
    enters v1; within the rest, arcs run u1 -> everything, u4 -> u2,
    everything -> u3, u4 -> u5, and edges inside one class are oriented
    low -> high.  Asserts that no edge gets two directions and that an edge
    no rule covers lies inside one class."""
    sel = triple_selection(g)
    classes = {}
    for name, members in (("u1", sel.u1), ("u2", sel.u2), ("u3", sel.u3),
                          ("u4", sel.u4), ("u5", sel.u5)):
        for v in members:
            classes[v] = name
    arcs = []
    for x, y in g.edges:
        dirs = _d2_rule_directions(sel, x, y)
        assert len(dirs) <= 1, f"conflicting orientation rules on edge ({x},{y})"
        if dirs:
            arcs.append(dirs.pop())
            continue
        assert classes.get(x) == classes.get(y) is not None, (
            f"edge ({x},{y}) not covered by any rule"
        )
        arcs.append((x, y))
    return Digraph.from_arcs(g.n, arcs), sel


def is_acyclic(d: Digraph) -> bool:
    """Kahn's algorithm over the arc list: every vertex gets removed."""
    indeg = [0] * d.n
    succ = [[] for _ in range(d.n)]
    for u, v in d.arcs:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(d.n) if indeg[v] == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return removed == d.n


def halved_orientations(g: Graph) -> list[Digraph]:
    """One orientation of each {D, reverse(D)} pair, in the sweep's index
    order: sweep index i is orientation 2 * i, which keeps edge 0 low->high."""
    return [orientation_from_index(g, 2 * i) for i in range(orientation_count(g) // 2)]


def oracle_sweep(g: Graph) -> list[list[int]]:
    """The orientation sweep with no pruning over every sweep index (index i
    is orientation 2 * i): g, h and con of every orientation, by the
    per-digraph searches (which the oracles above check).

    Returns one [min, min index, max, max index] slot each for g, h and con;
    an index is the least one attaining its extremum.
    """
    best = None
    for idx in range(orientation_count(g) // 2):
        rep = digraph_report(orientation_from_index(g, 2 * idx))
        vals = (rep.g, rep.h, rep.con)
        if best is None:
            best = [[v, idx, v, idx] for v in vals]
            continue
        for slot, v in zip(best, vals):
            if v < slot[0]:
                slot[0], slot[1] = v, idx
            if v > slot[2]:
                slot[2], slot[3] = v, idx
    return best


def oracle_orientable_numbers(g: Graph) -> dict:
    """{key: (value, witness digraph)} for each key of NUMBER_KEYS, from the
    unpruned sweep over one orientation of each {D, reverse(D)} pair."""
    slots = oracle_sweep(g)
    pairs = [p for slot in slots for p in ((slot[0], slot[1]), (slot[2], slot[3]))]
    return {
        key: (v, orientation_from_index(g, 2 * idx))
        for key, (v, idx) in zip(NUMBER_KEYS, pairs)
    }


def random_digraph(rng: random.Random, n: int, p: float = 0.4) -> Digraph:
    """General digraph: every ordered pair becomes an arc independently,
    so 2-cycles are allowed."""
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph.from_arcs(n, arcs)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def all_digraphs(n: int):
    """Every digraph on n vertices: each unordered pair is absent, forward,
    backward, or a 2-cycle.  Use only for tiny n."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product(range(4), repeat=len(pairs)):
        arcs = []
        for (u, v), st in zip(pairs, states):
            if st & 1:
                arcs.append((u, v))
            if st & 2:
                arcs.append((v, u))
        yield Digraph.from_arcs(n, arcs)
