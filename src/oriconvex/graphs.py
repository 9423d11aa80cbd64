"""Undirected graphs, digraphs, orientations, and graph6/edge-list ingestion.

Vertices are always the integers 0..n-1, in input order.  Vertex subsets
cross the public API as frozensets; per-vertex adjacency is kept as integer
bitmasks so the exhaustive searches elsewhere in the package stay cheap.
"""

from __future__ import annotations

import os
import re
import string
from dataclasses import dataclass, field
from typing import Iterable, Iterator

DEFAULT_EDGE_BUDGET = 20

_G6_MAX_N = 62
# the largest vertex count an edge or arc list may state
_LIST_MAX_N = 1000
_G6_HEADER = ">>graph6<<"


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


class EdgeBudgetError(ValueError):
    """An orientation sweep would exceed the configured edge budget."""

    def __init__(self, m: int, budget: int):
        super().__init__(
            f"graph has {m} edges, over the enumeration budget of {budget} "
            f"(2^{m} orientations); rerun with an edge budget of at least {m}"
        )
        self.required_budget = m
        self.budget = budget

    def __reduce__(self):
        # rebuilt from (m, budget): the default passes the message alone to
        # __init__, so the error would not survive a worker process's pickle
        return type(self), (self.required_budget, self.budget)


def _bit_tables() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    # by doubling: the bytes with bit i set are those without it, plus i
    low, high = [()], [()]
    for i in range(8):
        low += [t + (i,) for t in low]
        high += [t + (i + 8,) for t in high]
    return low, high


# the set bits of each byte b, and of b << 8
_BYTE_BITS, _HIGH_BYTE_BITS = map(tuple, _bit_tables())


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, ascending, as a tuple.

    A mask below 2^8 is one lookup in a table of the bytes' bits, one below
    2^16 the concatenation of two.  A wider one is listed a lowest bit at a
    time: its masks (arc lists reach n = 1000) are mostly sparse, and a
    walk over every byte would cost n / 8 steps whatever the bit count.
    The tables and their tuples are shared by every caller, and none of
    them can be changed.  A negative mask, whose set bits never end, raises
    ValueError.
    """
    if mask < 256:
        if mask < 0:
            raise ValueError(f"a negative mask has no finite bit list: {mask}")
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _pair_masks(n: int, pairs, kind: str) -> tuple[list[int], list[int]]:
    """Out-masks and in-masks of the sorted `pairs` on vertices 0..n-1;
    `kind` is "edge" (each pair u < v) or "arc"."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    outs = [0] * n
    ins = [0] * n
    prev = None
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{kind} ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if kind == "edge" and u > v:
            raise ValueError(f"edge ({u},{v}) not normalized (need u < v)")
        if prev is not None and (u, v) <= prev:
            raise ValueError(f"{kind}s not sorted or duplicated at ({u},{v})")
        prev = (u, v)
        outs[u] |= 1 << v
        ins[v] |= 1 << u
    return outs, ins


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are (u, v) pairs with u < v, sorted."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj, ins = _pair_masks(self.n, self.edges, "edge")
        for v, m in enumerate(ins):
            adj[v] |= m
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from unordered pairs in any order; rejects loops and duplicates."""
        return cls(n, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)


@dataclass(frozen=True)
class Digraph:
    """Digraph; arcs are ordered (tail, head) pairs, sorted.

    May be an orientation of a Graph (at most one arc per vertex pair) or a
    general digraph with 2-cycles; self-loops are never allowed.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    out_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    in_masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        outs, ins = _pair_masks(self.n, self.arcs, "arc")
        object.__setattr__(self, "out_masks", tuple(outs))
        object.__setattr__(self, "in_masks", tuple(ins))

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """Build from (tail, head) pairs in any order; rejects loops and duplicates."""
        return cls(n, tuple(sorted(tuple(a) for a in arcs)))

    def has_arc(self, u: int, v: int) -> bool:
        return u != v and bool(self.out_masks[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_masks[v].bit_count()

    def underlying_graph(self) -> Graph:
        return Graph.from_edges(
            self.n, {(u, v) if u < v else (v, u) for u, v in self.arcs}
        )

    def is_orientation_of(self, g: Graph) -> bool:
        return len(self.arcs) == g.m and self.underlying_graph() == g


def reverse(d: Digraph) -> Digraph:
    """Flip every arc; an involution."""
    return Digraph.from_arcs(d.n, ((v, u) for u, v in d.arcs))


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)

def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line.

    Byte offsets in error messages are relative to the start of the line,
    after any ">>graph6<<" header.
    """
    line = text.rstrip("\r\n")
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise GraphFormatError("empty graph6 line")
    c0 = ord(line[0])
    if c0 == 126:
        raise GraphFormatError(
            "long-form graph6 at byte 0 (n > 62 is not supported)"
        )
    if not 63 <= c0 <= 125:
        raise GraphFormatError(f"invalid graph6 header byte {c0} at byte 0")
    n = c0 - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = line[1:]
    if len(data) < nbytes:
        raise GraphFormatError(
            f"truncated graph6 line at byte {len(line)}: n={n} needs "
            f"{nbytes} data bytes, got {len(data)}"
        )
    if len(data) > nbytes:
        raise GraphFormatError(f"trailing garbage at byte {1 + nbytes}")
    values = []
    for i, ch in enumerate(data):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise GraphFormatError(f"invalid graph6 data byte {c} at byte {i + 1}")
        values.append(c - 63)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if values[k // 6] >> (5 - k % 6) & 1:
                edges.append((u, v))
            k += 1
    for k in range(nbits, 6 * nbytes):
        if values[k // 6] >> (5 - k % 6) & 1:
            raise GraphFormatError(
                f"nonzero padding bit at byte {1 + k // 6}"
            )
    return Graph(n, tuple(sorted(edges)))


def graph6_lines(source) -> Iterator[tuple[int, str]]:
    """(line number, text) of each nonblank line of a graph6 source, yielded
    as the source is read.

    The edge and arc lists of `_parse_pairs` are read by the same rule.
    `source` is a file path (str, bytes or os.PathLike) or an iterable of
    lines, each str or bytes.  A path is opened at the first line asked for
    and closed after the last, so an unreadable file raises there.  A file
    and bytes are read as latin-1, one character per byte, so a byte that
    is not graph6 (non-ASCII included) fails to parse on its own line.
    A file's lines end at '\n' only: a bare '\r' stays inside its line and
    fails it.
    Lines lose ASCII whitespace only, which is never a graph6 byte: a bare
    strip() would also drop 0x85 and 0xA0 and pass the rest of the line.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="latin-1", newline="\n") as fh:
            yield from graph6_lines(fh)
        return
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("latin-1")
        text = raw.strip(string.whitespace)
        if text:
            yield lineno, text


def encode_graph6(g: Graph) -> str:
    """Encode as one graph6 line (no header, no newline)."""
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph6 short form supports n <= {_G6_MAX_N}, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    values = [0] * ((nbits + 5) // 6)
    k = 0
    for v in range(1, g.n):
        for u in range(v):
            if g.has_edge(u, v):
                values[k // 6] |= 1 << (5 - k % 6)
            k += 1
    return chr(g.n + 63) + "".join(chr(63 + x) for x in values)


# ---------------------------------------------------------------------------
# edge-list text format: first line n, then one "u v" pair per line

# a token is ASCII digits with an optional sign; int() alone would also take
# Unicode digits, '_' and Unicode whitespace around the number
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_ASCII_SPACE = re.compile(f"[{re.escape(string.whitespace)}]+")


def _parse_pairs(text: str, kind: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and 'u v' pairs; `kind` is "edge" (unordered) or "arc".

    Lines are those of `graph6_lines`, split at '\n' only, and tokens are
    separated by ASCII whitespace only, so a byte such as 0x85 or 0xA0 fails
    where it stands instead of splitting a line or a pair.
    """
    header = None
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, stripped in graph6_lines(text.split("\n")):
        if header is None:
            if not _INT_TOKEN.fullmatch(stripped):
                raise GraphFormatError(
                    f"line {lineno}: expected vertex count, got {stripped!r}"
                )
            header = int(stripped)
            if header < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            if header > _LIST_MAX_N:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {header} is over the limit of {_LIST_MAX_N}"
                )
            continue
        parts = _ASCII_SPACE.split(stripped)
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {stripped!r}")
        if not all(_INT_TOKEN.fullmatch(t) for t in parts):
            raise GraphFormatError(
                f"line {lineno}: non-integer endpoint in {stripped!r}"
            )
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < header and 0 <= v < header):
            raise GraphFormatError(
                f"line {lineno}: endpoint out of range [0,{header}) in ({u},{v})"
            )
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at {u}")
        pair = (u, v) if kind == "arc" or u < v else (v, u)
        if pair in seen:
            raise GraphFormatError(f"line {lineno}: duplicate {kind} ({u},{v})")
        seen.add(pair)
        pairs.append(pair)
    if header is None:
        raise GraphFormatError(f"empty {kind} list: missing vertex count")
    return header, pairs


def parse_edge_list(text: str) -> Graph:
    n, edges = _parse_pairs(text, "edge")
    return Graph(n, tuple(sorted(edges)))


def parse_arc_list(text: str) -> Digraph:
    """Directed variant of the edge-list format: ordered 'u v' means u -> v."""
    return Digraph.from_arcs(*_parse_pairs(text, "arc"))


# ---------------------------------------------------------------------------
# predicates

def is_connected(g: Graph) -> bool:
    return _adj_connected(g.adj)


def _adj_connected(adj: tuple[int, ...]) -> bool:
    """Whether the graph of these neighbour bitmasks is connected; the
    listing in `smallgraphs` tests its adjacencies before it builds a Graph."""
    seen = frontier = 1 if adj else 0
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def end_vertices(g: Graph) -> frozenset[int]:
    """Degree-1 vertices."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return min(g.degree(v) for v in range(g.n))


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


# ---------------------------------------------------------------------------
# orientations

def orientation_count(g: Graph) -> int:
    """2^m: every orientation of g, both members of each {D, reverse(D)} pair."""
    return 1 << g.m


def orientation_from_index(g: Graph, index: int) -> Digraph:
    """Orientation number `index`: bit j flips edge j from low->high to high->low.

    Index i ^ (2^m - 1) is the reverse of index i, so the even indices (edge 0
    low->high) hold one orientation of each {D, reverse(D)} pair.
    """
    total = orientation_count(g)
    if not 0 <= index < total:
        raise ValueError(f"orientation index {index} outside [0, {total})")
    arcs = []
    for j, (u, v) in enumerate(g.edges):
        arcs.append((v, u) if index >> j & 1 else (u, v))
    return Digraph.from_arcs(g.n, arcs)


def enumerate_orientations(
    g: Graph, *, edge_budget: int = DEFAULT_EDGE_BUDGET
) -> Iterator[Digraph]:
    """Yield all 2^m orientations of g once each, in index order."""
    if g.m > edge_budget:
        raise EdgeBudgetError(g.m, edge_budget)
    for index in range(orientation_count(g)):
        yield orientation_from_index(g, index)
