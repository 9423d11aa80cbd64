"""Isomorph-free enumeration of small graphs, for exhaustive corpus checks.

Graphs on n vertices are generated by extending every (n-1)-vertex graph
with a new vertex attached to each possible neighbour subset, bucketing the
candidates by an isomorphism-invariant refinement key, and settling bucket
collisions with an exact backtracking isomorphism test.  Deduplication is
exact regardless of how coarse the key is; the key only controls speed.

Desk scale only: meant for n <= 8 (12k isomorphism classes of connected
graphs at n = 8).
"""

from __future__ import annotations

import functools
from collections import defaultdict

from .graphs import Graph, bits, is_connected, min_degree

Adjacency = tuple[int, ...]  # neighbour bitmask per vertex

# rounds of colour refinement before the isomorphism search
_REFINE_ROUNDS = 3


def _refine_colors(adj: Adjacency):
    """Degree-based colour refinement; colours are nested tuples, so equal
    colours mean equal refinement signatures across different graphs."""
    n = len(adj)
    colors: list = [adj[v].bit_count() for v in range(n)]
    for _ in range(_REFINE_ROUNDS):
        colors = [
            (colors[v], tuple(sorted(colors[u] for u in bits(adj[v]))))
            for v in range(n)
        ]
    return colors


def _extend_isomorphism(adj1: Adjacency, adj2: Adjacency, c1, c2):
    """A colour-preserving isomorphism adj1 -> adj2, as a list (mapping[v] is
    the image of v), or None."""
    n = len(adj1)
    by_color = defaultdict(list)
    for w in range(n):
        by_color[c2[w]].append(w)
    # always the vertex with the most placed neighbours next (its image must
    # be a neighbour of theirs), rare colour classes first to cut the
    # branching factor
    order = []
    placed = [0]  # placed[d]: the vertices order[:d]
    while len(order) < n:
        done = placed[-1]
        v = min((v for v in range(n) if not done >> v & 1),
                key=lambda v: (-(adj1[v] & done).bit_count(), len(by_color[c1[v]]), v))
        order.append(v)
        placed.append(done | 1 << v)
    mapping = [-1] * n

    def extend(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        nbrs = adj1[v] & placed[depth]
        want = 0  # the images of v's placed neighbours
        for u in bits(nbrs):
            want |= 1 << mapping[u]
        if nbrs:
            cands = bits(adj2[mapping[(nbrs & -nbrs).bit_length() - 1]])
        else:
            cands = by_color[c1[v]]
        failed = []
        for w in cands:
            if used >> w & 1 or c2[w] != c1[v] or adj2[w] & used != want:
                continue
            # swapping twins w and f fixes every placed image, so if v -> f
            # did not extend, v -> w does not either
            if any(adj2[f] & ~(1 << w) == adj2[w] & ~(1 << f) for f in failed):
                continue
            mapping[v] = w
            if extend(depth + 1, used | 1 << w):
                return True
            failed.append(w)
        mapping[v] = -1
        return False

    return mapping if extend(0, 0) else None


def _to_graph(adj: Adjacency) -> Graph:
    n = len(adj)
    return Graph(
        n,
        tuple(
            (u, v) for u in range(n) for v in bits(adj[u] >> (u + 1) << (u + 1))
        ),
    )


@functools.cache
def _all_adjacencies(n: int) -> tuple[Adjacency, ...]:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return ((0,),)
    kept = []
    # candidates keyed by their sorted refined colours, which carry the
    # degrees: an isomorphism can only map a candidate to one with its key
    buckets = defaultdict(list)
    for base in _all_adjacencies(n - 1):
        for s in range(1 << (n - 1)):
            adj = list(base) + [s]
            for v in bits(s):
                adj[v] |= 1 << (n - 1)
            adj = tuple(adj)
            colors = _refine_colors(adj)
            bucket = buckets[tuple(sorted(colors))]
            if all(_extend_isomorphism(adj, other, colors, c) is None for other, c in bucket):
                bucket.append((adj, colors))
                kept.append(adj)
    return tuple(kept)


def all_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, disconnected included."""
    return tuple(_to_graph(adj) for adj in _all_adjacencies(n))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """The connected members of `all_graphs(n)`, in its order."""
    return tuple(g for g in all_graphs(n) if is_connected(g))


def trees(n: int) -> tuple[Graph, ...]:
    """Connected graphs with n - 1 edges."""
    return tuple(g for g in connected_graphs(n) if g.m == n - 1)


def connected_min_degree_2(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in connected_graphs(n) if min_degree(g) >= 2)
