"""Geodesic intervals, convex hulls, and extreme vertices of digraphs.

A u-v geodesic is a shortest dipath from u to v.  The closed interval
I[u,v] holds u, v and every vertex on some u->v or some v->u geodesic, so
it is symmetric in its arguments by definition.  Membership is decided by
the distance-sum criterion: w lies on a u->v geodesic iff
d(u,w) + d(w,v) = d(u,v) with d(u,v) finite.
"""

from __future__ import annotations

import math
from typing import Iterable

from .graphs import Digraph, bits

UNREACHABLE = math.inf

DistanceMatrix = tuple[tuple[float, ...], ...]


def all_pairs_distances(d: Digraph) -> DistanceMatrix:
    """BFS hop counts for every ordered pair; UNREACHABLE where no dipath exists."""
    rows = []
    for s in range(d.n):
        row = [UNREACHABLE] * d.n
        row[s] = 0
        seen = 1 << s
        frontier = 1 << s
        depth = 0
        while frontier:
            depth += 1
            nxt = 0
            for v in bits(frontier):
                nxt |= d.out_masks[v]
            frontier = nxt & ~seen
            seen |= frontier
            for v in bits(frontier):
                row[v] = depth
        rows.append(tuple(row))
    return tuple(rows)


def _check_vertex(d: Digraph, v: int) -> None:
    if not 0 <= v < d.n:
        raise ValueError(f"vertex {v} outside [0, {d.n})")


def interval(d: Digraph, dist: DistanceMatrix, u: int, v: int) -> frozenset[int]:
    """Closed interval I[u,v]; u = v gives the singleton."""
    _check_vertex(d, u)
    _check_vertex(d, v)
    members = {u, v}
    for a, b in ((u, v), (v, u)):
        dab = dist[a][b]
        if dab != UNREACHABLE:
            for w in range(d.n):
                if dist[a][w] + dist[w][b] == dab:
                    members.add(w)
    return frozenset(members)


def interval_of_set(
    d: Digraph, dist: DistanceMatrix, s: Iterable[int]
) -> frozenset[int]:
    """I[S]: union of I[u,v] over all pairs of S, including u = v."""
    verts = sorted(set(s))
    if not verts:
        raise ValueError("interval of the empty set is undefined")
    # the two ends of the sorted set check every vertex, also one in no pair
    _check_vertex(d, verts[0])
    _check_vertex(d, verts[-1])
    members = set(verts)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            members |= interval(d, dist, u, v)
    return frozenset(members)


def iterated_interval(d: Digraph, s: Iterable[int], k: int) -> frozenset[int]:
    """I^k[S]; k = 0 returns S itself."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    cur = frozenset(s)
    if not cur:
        raise ValueError("interval of the empty set is undefined")
    _check_vertex(d, min(cur))
    _check_vertex(d, max(cur))
    dist = all_pairs_distances(d)
    for _ in range(k):
        cur = interval_of_set(d, dist, cur)
    return cur


def convex_hull(
    d: Digraph, s: Iterable[int], dist: DistanceMatrix | None = None
) -> frozenset[int]:
    """Smallest convex superset: the fixpoint of the interval operator.

    `dist` is d's distance matrix; it is computed here when not given.
    """
    cur = frozenset(s)
    if not cur:
        raise ValueError("hull of the empty set is undefined")
    if dist is None:
        dist = all_pairs_distances(d)
    elif len(dist) != d.n:
        raise ValueError(f"distance matrix has {len(dist)} rows for {d.n} vertices")
    while True:
        nxt = interval_of_set(d, dist, cur)
        if nxt == cur:
            return cur
        cur = nxt


def is_convex(d: Digraph, s: Iterable[int]) -> bool:
    """True iff every geodesic between members of s stays inside s."""
    cur = frozenset(s)
    if not cur:
        return True
    dist = all_pairs_distances(d)
    return interval_of_set(d, dist, cur) <= cur


def is_extreme(d: Digraph, v: int) -> bool:
    """True iff every in-neighbour of v points to every other out-neighbour.

    The u = w case (a 2-cycle through v) imposes no constraint: a u-u
    geodesic has length zero, so it cannot pass through v.  With that
    reading, v is extreme iff v is interior to no geodesic iff V - v is
    convex, for general digraphs as well as orientations.
    """
    _check_vertex(d, v)
    outs = d.out_masks[v]
    for u in bits(d.in_masks[v]):
        if outs & ~d.out_masks[u] & ~(1 << u):
            return False
    return True


def extreme_vertices(d: Digraph) -> frozenset[int]:
    return frozenset(v for v in range(d.n) if is_extreme(d, v))


def sources(d: Digraph) -> frozenset[int]:
    """Vertices with no in-arcs; vacuously extreme."""
    return frozenset(v for v in range(d.n) if d.in_masks[v] == 0)


def sinks(d: Digraph) -> frozenset[int]:
    """Vertices with no out-arcs; vacuously extreme."""
    return frozenset(v for v in range(d.n) if d.out_masks[v] == 0)
