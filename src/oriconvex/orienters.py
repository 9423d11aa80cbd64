"""Constructive orientations with certified properties.

Two constructions:

* ``extreme_free_orientation`` orients any min-degree-2 graph so that no
  vertex is extreme: pack edge-disjoint chordless cycles (greedily, one
  length at a time over the unused edges, so maximal by construction,
  stopping at the first length k whose free edges have a 2-core of fewer
  than k vertices) and orient them as directed cycles, then repeatedly
  orient a shortest path of unoriented vertices between two oriented ones
  (run against the arc joining its ends when the path has a single
  interior vertex and its ends are adjacent, so that it closes a directed
  triangle), and finally orient leftovers low -> high.
  Once a vertex has an in-arc u -> v and an out-arc v -> w with uw absent
  or oriented w -> u, no later choice can make it extreme again.  The
  state is one out-mask per vertex, as in ``Digraph.out_masks``, plus the
  mask of vertices touched so far; ``extreme_free_orientation_steps``
  yields a snapshot of the out-masks after each step.

* ``d2_construction`` / ``d1_from_d2`` produce, for a connected incomplete
  graph, a pair of orientations with g(D1) < g(D2) and h(D1) < h(D2), from
  an induced two-edge path v0-v1-v2 and a partition U1..U5 of the remaining
  vertices.  D2 is the orientation along the key (class rank, vertex), with
  the ranks v0 = v2 < U1 < U4 < U2 = U5 < U3 < v1; it is a total order on
  every edge's endpoints because v0v2 is not an edge and no edge joins U2
  to U5.  So D2 is acyclic, v0 and v2 are sources and v1 is the sink, and
  all three are extreme.  D1 is the same order with v2 moved last: it
  reverses the arcs at v2, putting v1 on a v0-v2 geodesic.

All tie-breaks are canonical (lowest vertex / lowest index) so outputs are
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import geodesic
from .graphs import Digraph, Graph, bits, is_complete, is_connected, mask_of, min_degree


class ConstructionError(RuntimeError):
    """A construction's own postcondition failed; indicates a bug."""


# ---------------------------------------------------------------------------
# chordless cycle packing


def _chordless_cycles(g: Graph, free: list[int], length: int,
                      core: int) -> Iterator[tuple[int, ...]]:
    """The chordless cycles of g on exactly ``length`` vertices over edges
    set in the neighbour masks ``free`` and vertices in the mask ``core``,
    in lexicographic order, as (min vertex, smaller neighbour, ...).

    DFS over chord-free paths rooted at the cycle's smallest vertex; a path
    may only close back to the root, and emitting only when the second
    vertex is smaller than the last fixes the traversal direction.  Chords
    are checked in g.  ``free`` is read as the walk goes: a caller may clear
    edges between cycles, and re-checks a cycle's edges before taking it.
    Only core vertices are roots or path vertices: the packing passes the
    2-core of its free edges, which holds every free cycle.
    """
    adj = g.adj
    for a in bits(core):
        above = core & ~((1 << (a + 1)) - 1)
        for b in bits(free[a] & above):
            path, pathmask = [a, b], (1 << a) | (1 << b)
            # todo[i]: the extensions of path[: i + 2] left to try, one entry
            # per path vertex, so a long cycle needs no deep recursion
            todo = [free[b] & above & ~pathmask]
            while todo:
                if not todo[-1]:
                    todo.pop()
                    pathmask ^= 1 << path.pop()
                    continue
                wbit = todo[-1] & -todo[-1]
                todo[-1] ^= wbit
                w = wbit.bit_length() - 1
                if adj[w] & pathmask & ~(1 << a) & ~(1 << path[-1]):
                    continue  # chord to an interior path vertex
                closes = len(path) + 1 == length
                if adj[w] >> a & 1:
                    if closes and free[w] >> a & 1 and path[1] < w:
                        yield tuple(path) + (w,)
                    # extending past w would leave the chord wa inside the cycle
                elif not closes:
                    path.append(w)
                    pathmask |= wbit
                    todo.append(free[w] & above & ~pathmask)


def _core(adj: list[int], live: int, todo: int) -> int:
    """The 2-core of the graph with neighbour masks ``adj`` on the vertices
    ``live``, peeling those with fewer than 2 neighbours left, starting
    from ``todo`` (the only ones that may have too few)."""
    todo &= live
    while todo:
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        if (adj[v] & live).bit_count() < 2:
            live ^= b
            todo |= adj[v] & live
    return live


def _girth(adj: list[int]) -> int:
    """The length of a shortest cycle of the graph with neighbour masks
    ``adj``, or 0 if it has none.

    Every cycle lies in the 2-core.  A BFS from its least vertex r finds
    the shortest cycle through r (an edge outside the BFS tree closes a
    walk of length d(u) + d(w) + 1 that holds a cycle; the BFS stops where
    no shorter walk can close), then r is deleted and the core peeled
    again: girth(G) = min(shortest cycle through r, girth(G - r)).
    """
    everyone = (1 << len(adj)) - 1
    live = _core(adj, everyone, everyone)
    best = 0
    while live:
        r = (live & -live).bit_length() - 1
        dist, parent = {r: 0}, {r: -1}
        layer, d = [r], 0
        while layer and (not best or 2 * d + 1 < best):
            nxt = []
            for u in layer:
                for w in bits(adj[u] & live):
                    if w not in dist:
                        dist[w], parent[w] = d + 1, u
                        nxt.append(w)
                    elif w != parent[u] and (not best or dist[w] + d + 1 < best):
                        best = dist[w] + d + 1
            layer, d = nxt, d + 1
        live = _core(adj, live & ~(1 << r), adj[r])
    return best


def find_edge_disjoint_induced_cycles(g: Graph) -> list[tuple[int, ...]]:
    """A maximal set of pairwise edge-disjoint chordless cycles.

    Greedy in (length, tuple) order, searched one length at a time over the
    edges still free: a cycle whose edges stay free is met and taken, so the
    packing is maximal by construction.  The search stops at the first
    length k whose free edges have a 2-core of fewer than k vertices: a
    free k-cycle lies in that core, which starts as V (minimum degree 2)
    and is peeled again from the vertices of each pass's cycles.  For the
    same reason each pass roots and walks its paths inside that core only.

    A pass that takes no cycle moves k on to the girth of the free edges:
    a free chordless cycle is a cycle of the free edges, and their girth
    only grows as edges are taken.  This skips the empty passes that made
    a long cycle cost cubic time, and leaves the output unchanged.
    """
    if min_degree(g) < 2:
        raise ValueError("cycle packing needs minimum degree 2")
    free = list(g.adj)
    chosen = []
    core = (1 << g.n) - 1
    k = 3
    while core.bit_count() >= k:
        taken = len(chosen)
        hit = 0
        for cyc in _chordless_cycles(g, free, k, core):
            edges = list(zip(cyc, cyc[1:] + cyc[:1]))
            if all(free[u] >> v & 1 for u, v in edges):
                chosen.append(cyc)
                for u, v in edges:
                    free[u] &= ~(1 << v)
                    free[v] &= ~(1 << u)
                hit |= mask_of(cyc)
        core = _core(free, core, hit)
        k = k + 1 if len(chosen) > taken else max(k + 1, _girth(free))
    return chosen


# ---------------------------------------------------------------------------
# extreme-free orientation (minimum degree 2)


def _shortest_or_to_or_path(g: Graph, touched: int) -> list[int] | None:
    """Shortest path joining two distinct touched vertices (those in the
    mask ``touched``) through untouched interior vertices, with at least one
    interior vertex.  Ties break toward the lexicographically least path:
    a BFS layer lists the paths to it in lexicographic order, so a start's
    first hit is its least shortest path, and the paths from a later start
    begin with a larger vertex, so only a strictly shorter one replaces it.
    A path's first interior vertex is an untouched neighbour of its start,
    so only touched vertices with one are started from."""
    adj = g.adj
    near = 0
    for u in bits(~touched & ((1 << g.n) - 1)):
        near |= adj[u]
    best: list[int] | None = None
    for start in bits(touched & near):
        parent = {start: -1}
        layer = [start]
        depth = 0
        while layer and (best is None or depth + 2 < len(best)):
            depth += 1
            nxt = []
            for u in layer:
                for w in bits(adj[u]):
                    if w in parent:
                        continue
                    if touched >> w & 1:
                        if u == start:
                            continue  # r = 0, no interior vertex to orient
                        path = [w, u]
                        p = parent[u]
                        while p != -1:
                            path.append(p)
                            p = parent[p]
                        path.reverse()
                        if best is None or len(path) < len(best):
                            best = path
                    else:
                        parent[w] = u
                        nxt.append(w)
            layer = nxt
    return best


def extreme_free_orientation_steps(g: Graph) -> Iterator[tuple[int, ...]]:
    """The construction one step at a time, for audit: the out-masks so far
    (bit y of entry x means x -> y, as in ``Digraph.out_masks``) after each
    cycle, each path, and the final cleanup."""
    if not g.n:
        raise ValueError(
            "extreme-free orientation needs minimum degree 2: the graph has no vertex")
    low = next((v for v in range(g.n) if g.degree(v) < 2), None)
    if low is not None:
        deg = g.degree(low)
        why = ("an end-vertex is a source or a sink in every orientation" if deg == 1
               else "an isolated vertex is interior to no geodesic")
        raise ValueError(
            f"extreme-free orientation needs minimum degree 2: vertex {low} "
            f"has degree {deg}, and {why}, hence extreme"
        )
    adj = g.adj
    out = [0] * g.n
    touched = 0

    def orient(x: int, y: int) -> None:
        nonlocal touched
        if not adj[x] >> y & 1:
            raise ConstructionError(f"({x},{y}) is not an edge of the graph")
        if out[x] >> y & 1 or out[y] >> x & 1:
            raise ConstructionError(f"edge {{{x},{y}}} already oriented")
        out[x] |= 1 << y
        touched |= (1 << x) | (1 << y)

    for cyc in find_edge_disjoint_induced_cycles(g):
        for i, u in enumerate(cyc):
            orient(u, cyc[(i + 1) % len(cyc)])
        yield tuple(out)
    full = (1 << g.n) - 1
    while touched != full:
        path = _shortest_or_to_or_path(g, touched)
        if path is None:
            raise ConstructionError(
                "no augmenting path found with vertices still unoriented"
            )
        # an edge u0u2 is oriented, or the packing would have taken u0u1u2: run against it
        if len(path) == 3 and out[path[0]] >> path[2] & 1:
            path.reverse()
        for u, w in zip(path, path[1:]):
            orient(u, w)
        yield tuple(out)
    left = [(u, v) for u, v in g.edges if not (out[u] >> v & 1 or out[v] >> u & 1)]
    if left:
        for u, v in left:
            orient(u, v)
        yield tuple(out)


def extreme_free_orientation(g: Graph) -> Digraph:
    """An orientation of g with no extreme vertex (so con < n - 1)."""
    out = ()
    for out in extreme_free_orientation_steps(g):
        pass
    arcs = tuple((x, y) for x, m in enumerate(out) for y in bits(m))
    if len(arcs) != g.m:
        raise ConstructionError(f"{g.m - len(arcs)} edges still unoriented")
    d = Digraph(g.n, arcs)
    for v in range(d.n):
        if geodesic.is_extreme(d, v):
            raise ConstructionError(f"vertex {v} ended up extreme")
    return d


# ---------------------------------------------------------------------------
# the D2 / D1 pair for incomplete graphs


@dataclass(frozen=True)
class TripleSelection:
    """An induced path v0-v1-v2 plus the partition of the other vertices.

    u1: neighbours of v1 but not v2;  u2: common neighbours of v1 and v2;
    u3: neighbours of v2 but not v1;  u4: the rest of N(u2);  u5: remainder.
    """

    v0: int
    v1: int
    v2: int
    u: frozenset[int]
    u1: frozenset[int]
    u2: frozenset[int]
    u3: frozenset[int]
    u4: frozenset[int]
    u5: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "v0": self.v0,
            "v1": self.v1,
            "v2": self.v2,
            "u1": sorted(self.u1),
            "u2": sorted(self.u2),
            "u3": sorted(self.u3),
            "u4": sorted(self.u4),
            "u5": sorted(self.u5),
        }


def triple_selection(g: Graph) -> TripleSelection:
    """Lexicographically least induced two-edge path and its partition:
    smallest middle vertex v1, then the smallest non-adjacent pair v0 < v2
    among its neighbours."""
    if not is_connected(g) or g.n < 3:
        raise ValueError("need a connected graph on at least 3 vertices")
    if is_complete(g):
        raise ValueError(
            "complete graph has no induced two-edge path; "
            "use complete_graph_orientations"
        )
    # connected and incomplete, so some vertex has two non-adjacent neighbours
    v0, v1, v2 = next(
        (v0, v1, v2)
        for v1 in range(g.n)
        for v0, v2 in itertools.combinations(g.neighbors(v1), 2)
        if not g.has_edge(v0, v2)
    )
    umask = ((1 << g.n) - 1) & ~mask_of((v0, v1, v2))
    n1, n2 = g.adj[v1], g.adj[v2]
    u1 = umask & n1 & ~n2
    u2 = umask & n1 & n2
    u3 = umask & n2 & ~n1
    n_of_u2 = 0
    for x in bits(u2):
        n_of_u2 |= g.adj[x]
    u4 = (umask & n_of_u2) & ~(u1 | u2 | u3)
    u5 = umask & ~(u1 | u2 | u3 | u4)
    fs = lambda m: frozenset(bits(m))
    return TripleSelection(v0, v1, v2, fs(umask), fs(u1), fs(u2), fs(u3), fs(u4), fs(u5))


def d2_construction(g: Graph) -> tuple[Digraph, TripleSelection]:
    """The orientation whose geodetic and hull numbers the D1 flip undercuts.

    D2 orients every edge along the key (class rank, vertex), with the ranks
    v0 = v2 < u1 < u4 < u2 = u5 < u3 < v1: every edge leaves v0 and v2 and
    enters v1 (so all three are extreme, v0 and v2 sources and v1 the
    sink), u1 -> everything, u4 -> u2, u4 -> u5, everything -> u3, and edges
    inside one class run low -> high.  The key is a total order on the
    edges' endpoints because v0v2 is not an edge and no edge joins u2 to
    u5 (u4 holds every neighbour of u2 outside u1, u2, u3), so D2 is
    acyclic.  D1 (``d1_from_d2``) is the same order with v2 moved last.
    """
    sel = triple_selection(g)
    rank = [0] * g.n
    for r, members in ((1, sel.u1), (2, sel.u4), (3, sel.u2), (3, sel.u5), (4, sel.u3)):
        for v in members:
            rank[v] = r
    rank[sel.v1] = 5
    d2 = Digraph.from_arcs(
        g.n, [(u, v) if (rank[u], u) < (rank[v], v) else (v, u) for u, v in g.edges]
    )
    if d2.out_masks[sel.v1] or d2.in_masks[sel.v0] or d2.in_masks[sel.v2]:
        raise ConstructionError("v1 must be a sink and v0, v2 sources in D2")
    return d2, sel


def d1_from_d2(d2: Digraph, sel: TripleSelection) -> Digraph:
    """Reverse the arcs incident to v2; v1 lands on a v0-v2 geodesic."""
    v2 = sel.v2
    arcs = [(v, u) if v2 in (u, v) else (u, v) for u, v in d2.arcs]
    return Digraph.from_arcs(d2.n, arcs)


# ---------------------------------------------------------------------------
# complete graphs


def complete_graph_orientations(n: int) -> tuple[Digraph, Digraph]:
    """(transitive tournament, same with the Hamiltonian path reversed).

    In the tournament every vertex is extreme, so g = h = n.  Reversing the
    arcs of the path 0-1-...-(n-1) makes the descending path the unique
    (n-1) -> 0 geodesic, so {0, n-1} is a geodetic set and g = h = 2.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    transitive = Digraph.from_arcs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
    reversed_path = Digraph.from_arcs(
        n,
        [(i + 1, i) for i in range(n - 1)]
        + [(i, j) for i in range(n) for j in range(i + 2, n)],
    )
    return transitive, reversed_path
