"""Exact geodetic, hull and convexity numbers, per digraph and over orientations.

The searches here are exact and deterministic, and every witness is the
lexicographically least optimum, so reruns are diffable.  The g and h
searches scan candidate sets by increasing size and lexicographically within
a size, and every candidate contains all extreme vertices (which belong to
every geodetic set and every hull-set).  A depth-first walk lists the
candidates in that order and carries each prefix's interval (for g) or
hull (for h), so a candidate costs the pairs at its last vertex, not the
recomputation of its whole set.  These scans stay exponential, so one that
would test more than `_SCAN_LIMIT` sets of one size raises
`ScanBudgetError` instead.  The con search is V less the
largest extreme vertex when there is one.  Otherwise it walks the convex
sets upward from the empty set by closure extension (they are closed under
intersection), cutting every subtree that cannot beat the best size found.
A child's hull stops at the first vertex below its new vertex outside the
parent, since such a hull can no longer be a child, and most children are
settled by the first round of their hull, which the walk takes inline.

Internally everything runs on one bitmask kernel per digraph (the matrix of
interval masks and the mask of extreme vertices), built once and shared by
the g, h and con searches, also when they are asked for one at a time: the
public functions read it through `_digraph_kernel`, a cache of the two
digraphs asked last.  One BFS per source builds it: each vertex ORs
in the geodesic masks of its predecessors on the BFS frontier, and the
extreme vertices are those interior to no geodesic.  The sweep reads the
same kernel off the bit-parallel BFS of its batch instead, which runs the
same rule on one bit per orientation.  Each search runs
alone: asking for g never pays for the con search.  The public functions
translate to and from vertex tuples.

I[u,v] joins the u->v and the v->u geodesics, so g, h and con do not change
when every arc is reversed.  The sweep index space holds one orientation of
each {D, reverse(D)} pair: sweep index idx is orientation idx << 1 of
`graphs.orientation_from_index`, the 2^(m-1) orientations that keep edge 0
low->high.  The sweep takes them up to 2^12 at a time, one bit per
orientation (`_Batch`), and runs an exact search only where `_Batch.skips`
leaves an invariant unsettled, by bounds against the running [min, max] or
against values that the batch attains.  `skips` states the rules and why
they keep every result.  The bit-parallel BFS behind a batch costs about the
same for few lanes as for 2^12, so consecutive graphs of one order whose
index spaces each fit in one batch share one BFS as lane blocks (a pack,
see `_packs` and `_batches`), each with its own sweep state.  One loop,
`_sweep_pack`, builds and folds every batch: a pack takes one pass, and a
graph wider than one batch, a pack of its own, takes one pass per batch.
`orientable_numbers_each` is the one driver that forms packs and hands
them out, to worker processes when asked: the corpus run and the CLI sweep
through it, and `orientable_numbers` sweeps one graph as a pack of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .graphs import (
    DEFAULT_EDGE_BUDGET,
    Digraph,
    EdgeBudgetError,
    Graph,
    bits,
    is_connected,
    mask_of,
    orientation_from_index,
)

# ---------------------------------------------------------------------------
# bitmask core (shared by the per-digraph API and the orientation sweep)

# the most candidate sets of one size the g and h scans test: no digraph with
# n <= 26 meets it (C(26, 13) = 10,400,600), so neither does a sweep within
# the default edge budget (n <= 21); 20 disjoint directed triangles (n = 60,
# g = 40) do, at size 6.  It caps each size, not the whole scan, so a scan
# under it at every size can still take minutes: 8 disjoint directed
# triangles (n = 24, g = 16) take about 29 s
_SCAN_LIMIT = 1 << 24


class ScanBudgetError(ValueError):
    """A g or h scan would test more candidate sets of one size than
    `_SCAN_LIMIT`."""

    def __init__(self, size: int, count: int):
        super().__init__(
            f"the exact g or h search would test {count} candidate sets of "
            f"size {size} (every smaller set failed), over its limit of "
            f"{_SCAN_LIMIT}"
        )
        self.size = size
        self.count = count

    def __reduce__(self):
        # rebuilt from (size, count), as EdgeBudgetError is, so the error
        # survives a worker process's pickle
        return type(self), (self.size, self.count)


def _hull_mask(iv, smask: int, convex: int = 0, stop: int = 0) -> int:
    """Convex hull of `smask`, given a subset `convex` of it whose pairs'
    intervals `smask` holds (a convex subset does).

    Each round ORs in the intervals of the pairs that touch a vertex added
    in the round before (at first, a vertex outside `convex`).  The pairs
    inside the older part were taken in an earlier round or lie in
    `convex`, whose intervals `smask` holds.  So a caller that has run a
    round itself resumes here with its result and the set it grew from.
    Once the hull meets `stop` it returns early, with only part of the hull.
    """
    cur = smask
    fresh = smask & ~convex
    while fresh and not cur & stop:
        nxt = cur
        while fresh:
            b = fresh & -fresh
            fresh ^= b
            row = iv[b.bit_length() - 1]
            m = cur
            while m:
                c = m & -m
                m ^= c
                nxt |= row[c.bit_length() - 1]
        fresh = nxt & ~cur
        cur = nxt
    return cur


def _min_superset(n: int, seed: int, grow) -> int:
    """Smallest superset of `seed` whose state is V, lexicographically least.

    A candidate's state (its interval I[S] for g, its hull for h) is the
    state of its prefix grown by its last vertex: `grow(members, state, v)`
    is the state of S | {v}, given the state of S and the list of S's
    vertices, which the walk keeps by appending and popping as it goes
    (grow only reads it).  The seed's state is grow folded over its
    vertices.  The candidates of each size, in increasing size,
    come from a depth-first walk over the vertices outside the seed in index
    order, which visits them in the order of `itertools.combinations`; the
    seed's bits below a candidate's do not change that order (merging a
    fixed seed into sorted combinations preserves it), so the first hit is
    the canonical witness.  The walk is recursive, one level per vertex
    added to the seed.  It reaches depth d only after every candidate with
    fewer added vertices failed, at least 2^(d-1) of them, so in any run
    that ends its depth stays far below the recursion limit.

    The scan stays exponential, so before each size it counts the
    candidates of that size and raises `ScanBudgetError` past
    `_SCAN_LIMIT`, naming a size that every smaller set has failed.
    """
    full = (1 << n) - 1
    members = []
    state = 0
    for v in bits(seed):
        state = grow(members, state, v)
        members.append(v)
    if state == full:
        return seed
    rest = [v for v in range(n) if not seed >> v & 1]

    def walk(start: int, state: int, left: int) -> int:
        """The first of the candidates that add `left` vertices of
        rest[start:] to the set of `members` (whose state is `state`) to
        have state V, or 0."""
        for i in range(start, len(rest) - left + 1):
            v = rest[i]
            nxt = grow(members, state, v)
            if left == 1:
                if nxt == full:
                    return mask_of(members) | 1 << v
            else:
                members.append(v)
                hit = walk(i + 1, nxt, left - 1)
                members.pop()
                if hit:
                    return hit
        return 0

    for extra in range(1, len(rest) + 1):
        count = math.comb(len(rest), extra)
        if count > _SCAN_LIMIT:
            raise ScanBudgetError(len(members) + extra, count)
        if hit := walk(0, state, extra):
            return hit
    raise AssertionError("unreachable: the full vertex set always passes")


def _kernel(n: int, out_masks):
    """(interval-mask matrix, extreme-vertex mask): the input of every search.

    iv[u][v] = I[u,v] as a bitmask, from one BFS per source.  The BFS from
    u gives row[w], the vertices on some u->w geodesic: every vertex first
    reached at depth k + 1 ORs in the row of each of its in-neighbours at
    depth k.  A vertex u cannot reach keeps row 0, so no distance matrix
    and no unreachable sentinel are needed.  A vertex is extreme iff it is
    interior to no geodesic (see `geodesic.is_extreme`), so the extreme
    vertices are those in no interval I[u,v] less its ends.
    """
    rows = []
    for u in range(n):
        row = [0] * n
        row[u] = seen = frontier = 1 << u
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                p = b.bit_length() - 1
                new = out_masks[p] & ~seen
                nxt |= new
                rp = row[p]
                while new:
                    c = new & -new
                    new ^= c
                    row[c.bit_length() - 1] |= rp | c
            seen |= nxt
            frontier = nxt
        rows.append(row)
    # in place: each pair reads rows[u][v] and rows[v][u] once, before writing both
    inner = 0
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            ends = (1 << u) | (1 << v)
            m = ru[v] | rows[v][u]
            ru[v] = rows[v][u] = m | ends
            inner |= m & ~ends
    return rows, ((1 << n) - 1) & ~inner


def _geodetic_witness(n: int, iv, ext: int) -> int:
    def grow(members, cover: int, v: int) -> int:
        # I[S + v] = I[S] | I[v, u] for each u in S (I[v, v] = {v})
        row = iv[v]
        cover |= 1 << v
        for u in members:
            cover |= row[u]
        return cover

    return _min_superset(n, ext, grow)


def _hull_witness(n: int, iv, ext: int) -> int:
    # the hull of S is convex, so the hull of S + v needs only the pairs at v
    return _min_superset(n, ext, lambda members, hull, v: _hull_mask(iv, hull | 1 << v, hull))


def _convex_witness(n: int, iv, ext: int) -> int:
    """Least largest convex proper subset (n >= 2); its size is con.

    With an extreme vertex the answer is V less the largest one; otherwise
    `_convex_up` walks the convex sets upward from the empty set.
    """
    if ext:
        # Prop.: the (n-1)-sets V - v are convex exactly for extreme v, so the
        # lexicographically least maximum witness drops the largest extreme vertex
        return ((1 << n) - 1) & ~(1 << (ext.bit_length() - 1))
    return _convex_up(n, iv)


def _convex_up(n: int, iv) -> int:
    """The largest proper convex set, lexicographically least among those of
    its size, by a walk over the convex sets upward from the empty set.

    Convex sets are closed under intersection, so hull() is a closure
    operator and the convex sets are its closed sets.  They are listed by
    prefix-preserving closure extension (Uno, Kiyomi and Arimura, LCM ver. 2,
    2004): the root is the empty set with core -1, and convex C with core c
    has the child H = hull(C | {v}) with core v for each v > c outside C
    whose H agrees with C on the vertices below v.  Every other convex set P
    has exactly one parent, hull(P & {0..v-1}) for the least v with
    hull(P & {0..v}) = P, so each convex set is visited once, with no
    record of those seen.  Since C is convex, hull(C | {v}) only needs the
    pairs that touch the new vertices.  Its first round, C | {v} and the
    intervals I[v, u] for u in C (listed once per set), is taken inline:
    most candidates are settled there, because it adds no vertex (C | {v}
    is convex), is V, or meets a vertex that stops the hull (below).  Only
    the rest call `_hull_mask`, which resumes at the second round.

    A subtree agrees with its root below the root's core, so C's subtree
    adds only vertices above c.  A vertex v with hull(C | {v}) = V is
    forbidden: no proper convex superset of C holds it, so it stays
    forbidden in the children, and a hull that meets it is V and is not
    taken to the end.  No set in C's subtree is larger than |C|
    plus the unforbidden vertices above c outside C.

    A hull for v stops as soon as it holds a vertex below v outside C: it
    can no longer agree with C below v, so it is no child.  Then v is not
    marked forbidden, even if its hull is V.  Fewer forbidden vertices only
    weaken the bound, which stays a bound, and such a v whose hull is V is
    tried again under supersets of C, where its hull is V too and gives no
    child.  So every set has the children, and the walk the answer, of
    taking every hull to the end.

    The depth-first walk pops the children in increasing core order, and so
    visits the sets of one size in lexicographic order.  Two such sets lie
    under two children H_v and H_w (v < w) of one set, and H_v's subtree is
    walked first; the sets agree below v, and only the first holds v, so it
    is the lesser.  So the first set of the largest size is the least one,
    every later set of that size is greater, and a subtree whose bound does
    not exceed the best size so far is cut.  The answer is the first hit of
    a scan of the subsets by decreasing size, lexicographically within a size.
    """
    full = (1 << n) - 1
    best = bsize = 0
    stack = [(0, -1, 0)]  # (convex set, core, forbidden vertices)
    while stack:
        c, core, forb = stack.pop()
        size = c.bit_count()
        if size > bsize:
            best, bsize = c, size
        # the unforbidden vertices above the core, outside c
        cand = full & ~((1 << (core + 1)) - 1) & ~c & ~forb
        if size + cand.bit_count() <= bsize:
            continue
        members = list(bits(c))
        kids = []
        while cand:
            b = cand & -cand
            cand ^= b
            # a hull that meets a forbidden vertex f holds hull(C | {f}) = V;
            # one that meets a vertex below b outside c leaves the prefix
            below = (b - 1) & ~c
            stop = forb | below
            # the first round of hull(C | {b}): c is convex, so the pairs at b
            cb = h = c | b
            v = b.bit_length() - 1
            row = iv[v]
            for u in members:
                h |= row[u]
            if h != cb and h != full and not h & stop:
                h = _hull_mask(iv, h, cb, stop)
            if h == full or h & forb:
                forb |= b
            elif not h & below:
                kids.append((h, v))
        for h, v in reversed(kids):
            stack.append((h, v, forb))
    return best


# ---------------------------------------------------------------------------
# per-digraph API


@functools.lru_cache(maxsize=2)
def _digraph_kernel(d: Digraph):
    """`_kernel` of d, for the per-digraph API; at most two are kept.

    Callers ask for g, h and con one at a time, and each search needs the
    whole kernel, so without a cache each call rebuilt it.  The key is the
    frozen digraph, whose equality is that of its arcs, so equal digraphs
    share an entry.  Two entries, because the D1/D2 pair is asked in turn:
    g(D1), g(D2), h(D1), h(D2).  The kernel is not stored on the Digraph:
    callers that keep many digraphs would keep every kernel too.  The
    searches only read it.
    """
    return _kernel(d.n, d.out_masks)


def _number(d: Digraph, search) -> tuple[int, tuple[int, ...]]:
    w = search(d.n, *_digraph_kernel(d))
    return w.bit_count(), tuple(bits(w))


def geodetic_number(d: Digraph) -> tuple[int, tuple[int, ...]]:
    """Minimum size of S with I[S] = V, plus the lexicographically least witness."""
    if d.n < 1:
        raise ValueError("geodetic number needs at least one vertex")
    return _number(d, _geodetic_witness)


def hull_number(d: Digraph) -> tuple[int, tuple[int, ...]]:
    """Minimum size of S whose convex hull is V, plus the least witness."""
    if d.n < 1:
        raise ValueError("hull number needs at least one vertex")
    return _number(d, _hull_witness)


def convexity_number(d: Digraph) -> tuple[int, tuple[int, ...]]:
    """Size of the largest convex proper subset, plus the least witness."""
    if d.n < 2:
        raise ValueError("convexity number needs at least two vertices")
    return _number(d, _convex_witness)


@dataclass(frozen=True)
class DigraphReport:
    """g, h and con of one digraph with their witness sets."""

    n: int
    g: int
    h: int
    con: int
    geodetic_witness: tuple[int, ...]
    hull_witness: tuple[int, ...]
    convexity_witness: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "h": self.h,
            "con": self.con,
            "geodetic_witness": list(self.geodetic_witness),
            "hull_witness": list(self.hull_witness),
            "convexity_witness": list(self.convexity_witness),
        }


def digraph_report(d: Digraph) -> DigraphReport:
    if d.n < 2:
        raise ValueError("reports need at least two vertices")
    (g, gw), (h, hw), (con, cw) = (
        _number(d, search) for search in (_geodetic_witness, _hull_witness, _convex_witness))
    return DigraphReport(d.n, g, h, con, gw, hw, cw)


# ---------------------------------------------------------------------------
# orientable numbers

NUMBER_KEYS = ("g_min", "g_max", "h_min", "h_max", "con_min", "con_max")


@dataclass(frozen=True)
class OrientableNumbers:
    """Exact min/max of g, h, con over all orientations, with witnesses.

    Each witness is the orientation of least sweep index attaining the
    extremum.  `orientations` is the size of the sweep index space,
    2^(m-1): one per {D, reverse(D)} pair.
    """

    n: int
    m: int
    g_min: int
    g_max: int
    h_min: int
    h_max: int
    con_min: int
    con_max: int
    g_min_witness: Digraph
    g_max_witness: Digraph
    h_min_witness: Digraph
    h_max_witness: Digraph
    con_min_witness: Digraph
    con_max_witness: Digraph
    orientations: int
    # g, h and con searches the sweep ran; the rest were settled by bounds.
    # They measure the pruning, not the graph, so they are left out of
    # equality and of the JSON.
    exact_searches: tuple[int, int, int] = field(compare=False)
    # sweep indices that read a kernel off their batch to search: those where
    # neither the bit-sliced bounds nor the values known exactly (g = h = 2
    # on `two`, con = n - 1 with an extreme vertex) settle g, h and con.  A
    # counter, like exact_searches.
    scalar_kernels: int = field(compare=False)

    def values(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in NUMBER_KEYS}

    def to_json_dict(self) -> dict:
        out = dict(self.values())
        out["n"] = self.n
        out["m"] = self.m
        out["orientations"] = self.orientations
        out["witnesses"] = {
            k: [list(a) for a in getattr(self, f"{k}_witness").arcs] for k in NUMBER_KEYS
        }
        return out


# recent g and con witnesses that a batch tries as bounds; on the n = 6
# corpus 1, 3 and 6 of them leave 380, 234 and 219 exact g searches, in
# 917, 763 and 747 steps, of which 838, 684 and 668 read a kernel
_RECENT = 3


def _remember(recent: list, w: int) -> None:
    if w not in recent:
        recent.insert(0, w)
        del recent[_RECENT:]


class _Sweep:
    """The running state of the sweep: the [min, min index, max, max index]
    slot of g, h and con, the recent witnesses of g and of con, and the
    number of exact g, h and con searches run and of kernels read off a batch.
    `_Batch.skips` decides where a search is needed.  The step records the
    values the batch knows exactly, and runs the searches left on the kernel
    that `_Batch.kernel` reads off the batch masks.

    Each slot starts at [n + 1, -1, 0, -1], past both ends of every value
    (2 <= g, h <= n, and 1 <= con <= n - 1, since a single vertex is
    convex), so the first value folded in sets both ends."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.slots = [[n + 1, -1, 0, -1] for _ in range(3)]
        self.recent = ([], [])
        self.runs = [0, 0, 0]
        self.kernels = 0

    def step(self, batch: _Batch, i: int, g_ok: int, h_ok: int, c_ok: int) -> None:
        """Fold sweep index batch.base + i into the state, given its bits of
        `_Batch.skips`: each exact search runs only where its bit is 0.
        The values known with no search come first and settle their
        invariants, so a kernel is read off the batch only to search."""
        n, idx = self.n, batch.base + i
        gs, hs, cs = self.slots
        ext = sum(1 << x for x, e in enumerate(batch.ext) if e >> i & 1)
        # g = h = 2 on `two`: every earlier index with g or h = 2 is folded
        # in, since `skips` settles a value of 2 on its min side only once the
        # running min is 2.  con = n - 1 where some vertex is extreme: `skips`
        # settles con nowhere before the running max is n - 1
        if batch.two >> i & 1:
            gs, hs = _record(gs, 2, idx), _record(hs, 2, idx)
            g_ok = h_ok = 1
        if ext:
            cs = _record(cs, n - 1, idx)
            c_ok = 1
        if not (g_ok and h_ok and c_ok):
            iv = batch.kernel(i)
            self.kernels += 1
            if not g_ok:
                w = _geodetic_witness(n, iv, ext)
                self.runs[0] += 1
                _remember(self.recent[0], w)
                gs = _record(gs, w.bit_count(), idx)
                # h <= g, and extreme vertices and a single vertex give h >= low:
                # the one bound the batch cannot see, since it needs the exact g
                h_ok = h_ok or (max(ext.bit_count(), 2) >= hs[0] and w.bit_count() <= hs[2])
            if not h_ok:
                w = _hull_witness(n, iv, ext)
                self.runs[1] += 1
                hs = _record(hs, w.bit_count(), idx)
            if not c_ok:
                w = _convex_up(n, iv)
                self.runs[2] += 1
                _remember(self.recent[1], w)
                cs = _record(cs, w.bit_count(), idx)
        self.slots = [gs, hs, cs]

    def fold(self, batch: _Batch) -> None:
        """Step each index of `batch`, in order, where `_Batch.skips` leaves
        some invariant unsettled.  The skips are recomputed from the state
        after every step (the tests behind them are cached per batch)."""
        above = batch.all
        while True:
            g_ok, h_ok, c_ok = batch.skips(self)
            todo = above & ~(g_ok & h_ok & c_ok)
            if not todo:
                return
            bit = todo & -todo
            self.step(batch, bit.bit_length() - 1, g_ok & bit, h_ok & bit, c_ok & bit)
            above = batch.all & -(bit << 1)  # the indices above this one


# a batch holds 2^k consecutive sweep indices, k = min(_BATCH_BITS, m - 1),
# and one BFS runs on at most 2^_BATCH_BITS lanes: one batch, or a pack
_BATCH_BITS = 12


def _batches(n: int, blocks) -> list[_Batch]:
    """One bit-parallel BFS over lane blocks, and the `_Batch` of each block.

    Each block (edges, base, k) is the sweep indices base .. base + 2^k - 1
    of a graph on the n vertices with those edges, base a multiple of 2^k:
    `_sweep_pack` passes one block per graph of a pack, its whole index
    space, or one batch of a graph wider than that.  The blocks stand side
    by side, each on the 2^k lanes after those of the blocks before it, and
    may come from different graphs: every step of the BFS is a bitwise
    operation, so each lane sees only its own orientation, and each
    `_Batch` is its block's slice of the shared masks.

    Index idx reverses edge j >= 1 where its bit j - 1 is set, so edge
    j <= k is reversed in a periodic pattern over a block, and a higher edge
    in all of it or in none of it.  One BFS per source runs on every lane at
    once (the bit-parallel BFS of Akiba, Iwata and Yoshida, SIGMOD 2013,
    with a bit per orientation where theirs has one per root) by the rule of
    `_kernel`: where t is first reached from a frontier vertex p, it ORs in
    p and each y on an s->p geodesic, so no distances are kept.
    """
    into = [{} for _ in range(n)]  # into[t][p]: the lanes where p -> t
    spans = []  # (first lane, lane mask) of each block
    lanes = 0
    for edges, base, k in blocks:
        full = (1 << (1 << k)) - 1
        for j, (u, v) in enumerate(edges):
            if j == 0:
                rev = 0
            elif j <= k:
                half = 1 << (j - 1)  # index bit j - 1 flips every `half` indices
                rev = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
            else:
                rev = full if base >> (j - 1) & 1 else 0
            for p, t, arc in ((u, v, full & ~rev), (v, u, rev)):
                if arc:
                    into[t][p] = into[t].get(p, 0) | arc << lanes
        spans.append((lanes, full))
        lanes += 1 << k
    full = (1 << lanes) - 1
    into = [list(arcs.items()) for arcs in into]

    on = []  # on[s][t][y]: where y is on an s->t geodesic, s and t left out
    for s in range(n):
        to = [[0] * n for _ in range(n)]
        seen = [0] * n
        seen[s] = full
        front = {s: full}  # where each vertex was first reached one level up
        while front:
            nxt = {}
            for t in range(n):
                if seen[t] == full:
                    continue
                row = to[t]
                reach = 0
                for p, arc in into[t]:
                    if p in front:
                        e = front[p] & arc & ~seen[t]  # where p -> t is a first step
                        if e:
                            reach |= e
                            if p != s:
                                row[p] |= e
                                for y, m in enumerate(to[p]):
                                    if m:
                                        row[y] |= m & e
                if reach:
                    seen[t] |= reach
                    nxt[t] = reach
            front = nxt
        on.append(to)

    inner = [0] * n
    rows = []
    two = 0
    for u, v in itertools.combinations(range(n), 2):
        uv, vu = on[u][v], on[v][u]
        row = []
        every = full  # where each y on the row is in I[u,v]
        for y in range(n):
            m = uv[y] | vu[y]
            if m:
                row.append((y, m))
                inner[y] |= m
                every &= m
        if len(row) == n - 2:
            two |= every
        rows.append((u, v, row))
    return [
        _Batch(n, base, mask,
               [(u, v, [(y, s) for y, m in row if (s := m >> lo & mask)]) for u, v, row in rows],
               [mask & ~(m >> lo) for m in inner], two >> lo & mask)
        for (_, base, _), (lo, mask) in zip(blocks, spans)
    ]


class _Batch:
    """The sweep indices base .. base + 2^k - 1 of one graph at once, one bit
    per index: bit i of every mask here stands for sweep index base + i.

    `_batches` builds it, from the bit-parallel BFS that it shares with the
    other blocks of its pack.  `rows` holds, for each pair u < v, each y
    outside {u, v} with the mask where y is in I[u,v] (on a u->v or a v->u
    geodesic); `ext[x]` masks where x is extreme, and `two` where some
    pair's interval is V (there g = 2, see `skips`).  A recent witness w has
    one test below, `bound` for g and `convex` for con; neither depends on
    the running state, so `skips` runs each once per batch and caches it.
    """

    def __init__(self, n: int, base: int, full: int, rows, ext, two: int) -> None:
        self.n, self.base, self.all = n, base, full
        self.rows, self.ext, self.two = rows, ext, two
        self.ext_at_most = self._at_most(ext)
        # the largest lower bounds on g and on h in the batch (see `skips`)
        most = self.ext_at_most.index(full)  # the largest |ext|
        self.lows = (max(most, 3) if full & ~two else 2, max(most, 2))
        self._memo = {}

    def kernel(self, i: int):
        """The interval-mask matrix of sweep index base + i, read off the
        masks: what `_kernel` builds from that orientation."""
        n, bit = self.n, 1 << i
        iv = [[0] * u + [1 << u] + [0] * (n - 1 - u) for u in range(n)]
        for u, v, row in self.rows:
            m = (1 << u) | (1 << v)
            for y, ym in row:
                if ym & bit:
                    m |= 1 << y
            iv[u][v] = iv[v][u] = m
        return iv

    def _at_most(self, members) -> list[int]:
        """at[c]: where at most c of the masks `members` are set, by one
        bit-sliced count per size."""
        exactly = [self.all] + [0] * self.n
        for m in members:
            if m:
                for c in range(self.n, 0, -1):
                    exactly[c] = exactly[c] & ~m | exactly[c - 1] & m
                exactly[0] &= ~m
        return list(itertools.accumulate(exactly, int.__or__))

    def low_at_least(self, t: int, floor: int) -> int:
        """Where max(|ext|, floor) >= t."""
        return self.all if t <= floor else self.all & ~self.ext_at_most[t - 1]

    def bound(self, w: int) -> tuple[list[int], int]:
        """(at, covers) of the set w | ext: at[c] masks where its size is at
        most c, and covers where its interval I[w | ext] is V (there it
        bounds g above by its size)."""
        cur = [self.all if w >> x & 1 else e for x, e in enumerate(self.ext)]
        out = cur[:]
        for u, v, row in self.rows:
            both = cur[u] & cur[v]
            if both:
                for y, m in row:
                    out[y] |= both & m
        return self._at_most(cur), functools.reduce(int.__and__, out, self.all)

    def convex(self, w: int) -> int:
        """Where w is convex: no interval of two vertices of w leaves w."""
        out = 0
        for u, v, row in self.rows:
            if w >> u & w >> v & 1:
                for y, m in row:
                    if not w >> y & 1:
                        out |= m
        return self.all & ~out

    def _cached(self, test, w: int):
        key = test.__name__, w
        if key not in self._memo:
            self._memo[key] = test(w)
        return self._memo[key]

    def skips(self, sweep: _Sweep) -> tuple[int, int, int]:
        """(g_ok, h_ok, c_ok): where the exact search of g, h and con could
        change neither the final min nor the final max of the sweep, nor
        their least indices.

        An index is settled on its min side when its lower bound is at least
        the running min (the search could not move the strict update), or
        above an upper bound that some index of this batch attains (its
        value is above the final min, so it is not the least-index min).
        It is settled on its max side when its upper bound is at most the
        running max, or below the largest lower bound in the batch (its
        value is below the final max).  A skip needs both sides.  The index
        of each final extreme is never skipped: its value is beyond neither
        batch bound, and beyond the running slot until it is folded in.  So
        the running slot may lag, but the values and the least-index
        witnesses of the sweep are those of searching every orientation.

        The bounds.  The extreme vertices lie in every geodetic set and
        every hull-set, so g >= h >= max(|ext|, 2).  A pair {u, v} with
        I[u,v] = V holds every extreme vertex, which is interior to no
        geodesic, so g = 2 exactly on `two` (where some pair has
        I[u,v] = V), g >= 3 elsewhere, and h = 2 on `two`, since
        2 <= h <= g.  A recent g witness w whose w | ext still covers V
        gives g <= |w | ext|, and h with it, since h <= g.  The largest
        lower bounds in the batch are `lows`.  The one attained upper bound
        used is g = h = 2 on `two`: a witness w attains |w | ext| >= |w|, a
        g value the running slot has folded in, and off `two` the running h
        min is at most the running g min, so w settles no min side that the
        running range does not.  con <= n - 1, with equality where
        some vertex is extreme; otherwise a recent convex witness that is
        still convex bounds con below.  So:
        g: on `two`, the g min is 2; elsewhere max(|ext|, 3) >= g min, or
        >= 3 where `two` is not empty, and some such w has |w | ext| <=
        g max, or < the largest max(|ext|, 3) off `two` (2 if the whole batch
        is in `two`).
        h: on `two`, the h min is 2; elsewhere max(|ext|, 2) >= h min, or
        >= 3 where `two` is not empty, and some such w has |w | ext| <=
        h max, or < the largest max(|ext|, 2).
        con: the max is n - 1, and some vertex is extreme or a recent convex
        witness is convex here.  `_Sweep.step` records g = h = 2 on `two`
        and con = n - 1 where some vertex is extreme, with no search, and
        adds the one bound that needs an exact g: h <= g.

        Before the first step these rules settle nothing, from the start
        values of `_Sweep` alone: there is no recent witness, so no max side
        settles; `two` settles no min side while the min is n + 1 > 2; and
        con waits for a max of n - 1 >= 2.
        """
        gs, hs, cs = sweep.slots
        g_low, h_low = self.lows
        g_hi, h_hi = max(gs[2], g_low - 1), max(hs[2], h_low - 1)
        g_ok = h_ok = 0
        for w in sweep.recent[0]:
            at, covers = self._cached(self.bound, w)
            g_ok |= at[g_hi] & covers
            h_ok |= at[h_hi] & covers
        two = self.two
        g_ok, h_ok = (ok & ~two & self.low_at_least(min(s[0], 3) if two else s[0], floor)
                      | (two if s[0] <= 2 else 0)
                      for ok, s, floor in ((g_ok, gs, 3), (h_ok, hs, 2)))
        c_ok = 0
        if cs[2] >= self.n - 1:
            c_ok = self.all & ~self.ext_at_most[0]
            # each recent con witness has at least the min's size: its search
            # recorded that size, and the min only falls
            for w in sweep.recent[1]:
                c_ok |= self._cached(self.convex, w)
        return g_ok, h_ok, c_ok


def _record(slot, v: int, idx: int):
    """Fold value `v` of orientation `idx` into a [min, idx, max, idx] slot."""
    if v < slot[0]:
        slot[0], slot[1] = v, idx
    if v > slot[2]:
        slot[2], slot[3] = v, idx
    return slot


def _check(g: Graph, edge_budget: int) -> None:
    if g.n < 3:
        raise ValueError("orientable numbers need at least three vertices")
    if not is_connected(g):
        raise ValueError("orientable numbers are defined here for connected graphs")
    if g.m > edge_budget:
        raise EdgeBudgetError(g.m, edge_budget)


def _lanes(g: Graph, edge_budget: int) -> int:
    """The lanes g takes in a pack: 2^(m-1) when its whole sweep index space
    is one batch, 0 when it is swept alone (it is wider than a batch, or its
    sweep raises)."""
    try:
        _check(g, edge_budget)
    except ValueError:
        return 0
    return 1 << (g.m - 1) if g.m - 1 <= _BATCH_BITS else 0


def _packs(graphs, edge_budget: int):
    """The graphs in order, in lists that share one BFS: packs.

    A pack holds consecutive graphs of one order whose lanes (`_lanes`) add
    up to at most 2^_BATCH_BITS.  Every other graph is a pack of its own: a
    graph wider than one batch, which is swept a batch at a time, and a
    graph whose sweep raises.  A pack is yielded as soon as the graph after
    it is read.
    """
    pack, n, lanes = [], 0, 0
    for g in graphs:
        width = _lanes(g, edge_budget)
        if pack and not (width and g.n == n and lanes + width <= 1 << _BATCH_BITS):
            yield pack
            pack, lanes = [], 0
        if width:
            pack.append(g)
            n, lanes = g.n, lanes + width
        else:
            yield [g]
    if pack:
        yield pack


def _sweep_pack(graphs, edge_budget: int) -> list[OrientableNumbers]:
    """The orientable numbers of each graph of a pack from `_packs`, over
    every sweep index 0 .. 2^(m-1) - 1 (orientations idx << 1).

    Each pass of the loop runs one BFS over a block of 2^k indices, k =
    min(_BATCH_BITS, m - 1), of every graph of the pack, and folds each
    block's batch into its graph's state (see `_Sweep.fold`).  A pack, each
    index space within one batch, takes one pass; a graph wider than a
    batch is alone in its pack and takes one pass per batch, in order.
    Each graph has its own sweep state, so its result and its counters are
    those of a sweep of it alone."""
    for g in graphs:
        _check(g, edge_budget)
    n = graphs[0].n
    sweeps = [_Sweep(n) for _ in graphs]
    for base in range(0, 1 << (graphs[0].m - 1), 1 << _BATCH_BITS):
        blocks = [(g.edges, base, min(_BATCH_BITS, g.m - 1)) for g in graphs]
        for sweep, batch in zip(sweeps, _batches(n, blocks)):
            sweep.fold(batch)
    return [_sweep_result(g, sweep) for g, sweep in zip(graphs, sweeps)]


def _sweep_result(g: Graph, sweep: _Sweep) -> OrientableNumbers:
    fields = {}
    witnesses = {}  # one digraph per distinct witness index
    # each slot is [min, min index, max, max index]; NUMBER_KEYS runs min, max per slot
    ends = (end for slot in sweep.slots for end in (slot[:2], slot[2:]))
    for key, (value, idx) in zip(NUMBER_KEYS, ends):
        if idx not in witnesses:
            witnesses[idx] = orientation_from_index(g, idx << 1)
        fields[key] = value
        fields[key + "_witness"] = witnesses[idx]
    return OrientableNumbers(
        n=g.n,
        m=g.m,
        **fields,
        orientations=1 << (g.m - 1),
        exact_searches=tuple(sweep.runs),
        scalar_kernels=sweep.kernels,
    )


def _fan_out(fn, jobs, workers: int | None):
    """``fn(j)`` for each of the iterable `jobs`, yielded in input order as
    they finish, across `workers` processes when there are two or more of
    each; `fn` must pickle (a top-level function, or a partial of one).  A
    serial run reads each job only when it is its turn."""
    if workers and workers > 1:
        jobs = list(jobs)  # a pool takes every job at once
        if len(jobs) > 1:
            # imported here: multiprocessing costs every serial run its load time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(fn, jobs)
            return
    yield from map(fn, jobs)


def orientable_numbers_each(
    graphs,
    *,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
    workers: int | None = None,
):
    """`orientable_numbers` of each graph, in order, as each pack finishes.

    The one driver of packed sweeps.  Consecutive graphs of one order that
    each fit in one batch share a BFS (`_packs`); the results are those of
    sweeping each graph alone.  Each pack is one call of `_sweep_pack`, run
    across `workers` processes when there are two or more; a serial run
    reads `graphs` only up to the graph after the pack it sweeps.  A graph
    the sweep refuses raises where it stands, after the results before it.
    A `workers` below 1 is refused here, before any graph is read.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    sweep = functools.partial(_sweep_pack, edge_budget=edge_budget)
    return itertools.chain.from_iterable(_fan_out(sweep, _packs(graphs, edge_budget), workers))


def orientable_numbers(
    g: Graph,
    *,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
) -> OrientableNumbers:
    """Sweep one orientation of each {D, reverse(D)} pair of g's
    orientations, and aggregate the six extremes (reversal changes none).
    The graph is a pack of one (see `orientable_numbers_each`)."""
    return _sweep_pack([g], edge_budget)[0]
