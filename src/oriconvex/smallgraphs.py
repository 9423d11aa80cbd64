"""Isomorph-free enumeration of small graphs, for exhaustive corpus checks.

Graphs on n vertices are generated by extending every (n-1)-vertex graph
with a new vertex attached to each possible neighbour subset, bucketing the
candidates by their sorted vertex colours (each vertex's degree and its
neighbours' sorted degrees), and settling bucket collisions with an exact
backtracking isomorphism test.  Deduplication is exact regardless of how
coarse the colours are; they only control speed.  Each kept graph is the
first of its class in this order.

Desk scale: measured up to n = 9 (274,668 graphs, 261,080 connected; the
README gives the time and memory); n >= 10 is not measured.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from .graphs import Graph, _adj_connected, bits

Adjacency = tuple[int, ...]  # neighbour bitmask per vertex


def _colors(adj: Adjacency) -> list:
    """Each vertex's degree and its neighbours' sorted degrees: one round of
    colour refinement, comparable across graphs."""
    deg = [a.bit_count() for a in adj]
    return [(deg[v], tuple(sorted(deg[u] for u in bits(adj[v])))) for v in range(len(adj))]


def _isomorphic(adj1: Adjacency, adj2: Adjacency, c1, c2) -> bool:
    """Whether a colour-preserving isomorphism adj1 -> adj2 exists.  The
    backtracking search places the vertices of adj1 in index order, each on
    an unused vertex of its colour whose neighbours among the placed images
    are the images of its own placed neighbours."""
    n = len(adj1)
    image = [0] * n  # image[v]: the bit of v's image

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        want = 0  # the images of v's placed neighbours
        for u in bits(adj1[v] & ((1 << v) - 1)):
            want |= image[u]
        for w in range(n):
            if not used >> w & 1 and c2[w] == c1[v] and adj2[w] & used == want:
                image[v] = 1 << w
                if place(v + 1, used | 1 << w):
                    return True
        return False

    return place(0, 0)


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
    # candidates keyed by their sorted colours: an isomorphism can only map
    # a candidate to one with its key
    buckets = defaultdict(list)
    for base in _all_adjacencies(n - 1):
        for s in range(1 << (n - 1)):
            adj = list(base) + [s]
            for v in bits(s):
                adj[v] |= 1 << (n - 1)
            adj = tuple(adj)
            colors = _colors(adj)
            bucket = buckets[tuple(sorted(colors))]
            if not any(_isomorphic(adj, other, colors, c) for other, c in bucket):
                bucket.append((adj, colors))
                kept.append(adj)
    return tuple(kept)


def _graphs(n: int, keep) -> tuple[Graph, ...]:
    """The graphs of `_all_adjacencies(n)` whose adjacency passes `keep`, in
    its order; only the kept ones are built."""
    return tuple(_to_graph(adj) for adj in _all_adjacencies(n) if keep(adj))


def all_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class, disconnected included."""
    return _graphs(n, lambda adj: True)


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """The connected members of `all_graphs(n)`, in its order."""
    return _graphs(n, _adj_connected)


def trees(n: int) -> tuple[Graph, ...]:
    """Connected graphs with n - 1 edges."""
    return _graphs(n, lambda adj: sum(map(int.bit_count, adj)) == 2 * (n - 1)
                   and _adj_connected(adj))


def connected_min_degree_2(n: int) -> tuple[Graph, ...]:
    return _graphs(n, lambda adj: min(map(int.bit_count, adj)) >= 2 and _adj_connected(adj))
