"""Exact geodetic, hull and convexity numbers, per digraph and over orientations.

The searches here are exact and deterministic, and every witness is the
lexicographically least optimum, so reruns are diffable.  The g and h
searches scan candidate sets by increasing size and lexicographically within
a size, and every candidate contains all extreme vertices (which belong to
every geodetic set and every hull-set).  The con search is V less the
largest extreme vertex when there is one.  Otherwise it walks the convex
sets upward from the empty set by closure extension (they are closed under
intersection), cutting every subtree that cannot beat the best size found.

Internally everything runs on one bitmask kernel per digraph (the matrix of
interval masks and the mask of extreme vertices), built once and shared by
the g, h and con searches.  One BFS per source builds it: each vertex ORs
in the geodesic masks of its predecessors on the BFS frontier, and the
extreme vertices are those interior to no geodesic.  Each search runs
alone: asking for g never pays for the con search.  The public functions
translate to and from vertex tuples.

I[u,v] joins the u->v and the v->u geodesics, so g, h and con do not change
when every arc is reversed, nor under an automorphism of G.  The sweep index
space holds one orientation of each {D, reverse(D)} pair: sweep index idx is
orientation idx << 1 of `graphs.orientation_from_index`, the 2^(m-1)
orientations that keep edge 0 low->high.  Of these the sweep visits only the
least index of each orbit under Aut(G) x {id, full reversal} (McKay's
canonical representatives, applied to orientations).  Witnesses do not move:
the least index attaining an extremum shares its value with its whole orbit,
so nothing in the orbit lies below it, and it is that orbit's least index.
The sweep builds the kernel once per visited orientation and runs an
exact search only when cheap bounds cannot place the value inside the
running [min, max] of its chunk.  The extreme vertices give g >= h >=
max(#extreme, 2); a recent geodetic (hull) witness joined with them that
still covers V gives an upper bound, and h <= g; con is n - 1 when some
vertex is extreme, and otherwise a recent convex witness that is still
convex bounds it below once the max is n - 1.  A skip needs both
inequalities, so the strict min/max updates could not have fired: values
and least-index witnesses are those of searching every orientation.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .graphs import (
    DEFAULT_EDGE_BUDGET,
    Digraph,
    EdgeBudgetError,
    Graph,
    bits,
    is_connected,
    orientation_from_index,
)
from .smallgraphs import automorphism_generators

# ---------------------------------------------------------------------------
# bitmask core (shared by the per-digraph API and the orientation sweep)


def _interval_masks(n: int, out_masks) -> list[list[int]]:
    """iv[u][v] = I[u,v] as a bitmask, from one BFS per source.

    The BFS from u gives row[w], the vertices on some u->w geodesic: every
    vertex first reached at depth k + 1 ORs in the row of each of its
    in-neighbours at depth k.  A vertex u cannot reach keeps row 0, so no
    distance matrix and no unreachable sentinel are needed.
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
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            ru[v] = rows[v][u] = ru[v] | rows[v][u] | (1 << u) | (1 << v)
    return rows


def _set_interval(iv, smask: int) -> int:
    verts = list(bits(smask))
    out = smask
    for i, u in enumerate(verts):
        row = iv[u]
        for v in verts[i + 1:]:
            out |= row[v]
    return out


def _hull_mask(iv, smask: int, convex: int = 0, stop: int = 0) -> int:
    """Convex hull of `smask`, given a convex subset `convex` of it.

    Each round ORs in the intervals of the pairs that touch a vertex added
    in the round before (at first, a vertex outside `convex`).  The pairs
    inside the older part were taken in an earlier round or lie in
    `convex`, which holds their intervals.  Once the hull meets `stop` it
    returns early, with only part of the hull.
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


def _min_superset(n: int, seed: int, test) -> int:
    """Smallest superset of `seed` passing `test`, lexicographically least.

    Candidates of equal size are visited in lexicographic order of the full
    vertex tuple (merging a fixed seed into sorted combinations preserves
    that order), so the first hit is the canonical witness.
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


def _kernel(n: int, out_masks):
    """(interval-mask matrix, extreme-vertex mask): the input of every search.

    The matrix comes from one BFS per source (`_interval_masks`).  A vertex
    is extreme iff it is interior to no geodesic (see `geodesic.is_extreme`),
    so the extreme vertices are those in no interval I[u,v] less its ends.
    """
    iv = _interval_masks(n, out_masks)
    inner = 0
    for u in range(n):
        row = iv[u]
        for v in range(u + 1, n):
            inner |= row[v] & ~((1 << u) | (1 << v))
    return iv, ((1 << n) - 1) & ~inner


def _geodetic_witness(n: int, iv, ext: int) -> int:
    full = (1 << n) - 1
    return _min_superset(n, ext, lambda s: _set_interval(iv, s) == full)


def _hull_witness(n: int, iv, ext: int) -> int:
    full = (1 << n) - 1
    return _min_superset(n, ext, lambda s: _hull_mask(iv, s) == full)


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
    pairs that touch the new vertices.

    A subtree agrees with its root below the root's core, so C's subtree
    adds only vertices above c.  A vertex v with hull(C | {v}) = V is
    forbidden: no proper convex superset of C holds it, so it stays
    forbidden in the children, and a hull that meets it is V and is not
    taken to the end.  No set in C's subtree is larger than |C|
    plus the unforbidden vertices above c outside C.

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
        kids = []
        while cand:
            b = cand & -cand
            cand ^= b
            # a hull that meets a forbidden vertex f holds hull(C | {f}) = V
            h = _hull_mask(iv, c | b, c, forb)
            if h == full or h & forb:
                forb |= b
            elif not (h ^ c) & (b - 1):
                kids.append((h, b.bit_length() - 1))
        for h, v in reversed(kids):
            stack.append((h, v, forb))
    return best


# ---------------------------------------------------------------------------
# per-digraph API


def _number(d: Digraph, search) -> tuple[int, tuple[int, ...]]:
    w = search(d.n, *_kernel(d.n, d.out_masks))
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
    n = d.n
    iv, ext = _kernel(n, d.out_masks)
    gw, hw, cw = (search(n, iv, ext)
                  for search in (_geodetic_witness, _hull_witness, _convex_witness))
    return DigraphReport(n, gw.bit_count(), hw.bit_count(), cw.bit_count(),
                         tuple(bits(gw)), tuple(bits(hw)), tuple(bits(cw)))


# ---------------------------------------------------------------------------
# orientable numbers

NUMBER_KEYS = ("g_min", "g_max", "h_min", "h_max", "con_min", "con_max")


@dataclass(frozen=True)
class OrientableNumbers:
    """Exact min/max of g, h, con over all orientations, with witnesses.

    Each witness is the orientation of least sweep index attaining the
    extremum, so results are independent of chunking and worker count.
    `orientations` is the size of the sweep index space, 2^(m-1): one per
    {D, reverse(D)} pair.
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
    # Depends on the chunking, so it is left out of equality and of the JSON.
    exact_searches: tuple[int, int, int] = field(compare=False)
    # sweep indices visited: the orbit minima under Aut(G) and full reversal.
    # A counter, not a result, so it is left out of equality and of the JSON.
    orbit_representatives: int = field(compare=False)

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


def _build_out_masks(n, edges, index):
    outs = [0] * n
    for j, (u, v) in enumerate(edges):
        if index >> j & 1:
            u, v = v, u
        outs[u] |= 1 << v
    return outs


# recent witnesses per invariant that a chunk tries as bounds; on the n = 6
# corpus 1, 3 and 6 of them leave 1,611, 1,232 and 1,066 exact g searches at
# about the same sweep time, since every miss costs a set interval
_RECENT = 3


def _remember(recent: list, w: int) -> None:
    if w not in recent:
        recent.insert(0, w)
        del recent[_RECENT:]


def _sweep_chunk(args):
    """Aggregate the ascending sweep indices `indices` (orientations idx << 1);
    top-level for pickling.

    Returns the [min, min index, max, max index] slot of g, h and con (None
    when `indices` is empty), and the number of exact g, h and con searches
    run.  An exact search runs only when the bounds below cannot place the
    value inside the running [min, max]; a value placed there moves neither
    strict update, so the slots are those of searching every index given.
    """
    n, edges, indices = args
    full = (1 << n) - 1
    gs = hs = cs = None
    recent_g, recent_h, recent_c = [], [], []
    runs = [0, 0, 0]
    for idx in indices:
        iv, ext = _kernel(n, _build_out_masks(n, edges, idx << 1))
        # extreme vertices lie in every geodetic set and hull-set, and a
        # single vertex is its own hull: g >= h >= low
        low = max(ext.bit_count(), 2)

        # g: a recent witness joined with ext that still covers V bounds g above
        g_up = None
        if gs is not None and low >= gs[0]:
            for w in recent_g:
                s = w | ext
                if s.bit_count() <= gs[2] and _set_interval(iv, s) == full:
                    g_up = s.bit_count()
                    break
        if g_up is None:
            w = _geodetic_witness(n, iv, ext)
            runs[0] += 1
            _remember(recent_g, w)
            g_up = w.bit_count()
            gs = _record(gs, g_up, idx)

        # h <= g; failing that, a recent hull witness joined with ext
        inside = False
        if hs is not None and low >= hs[0]:
            inside = g_up <= hs[2] or any(
                (w | ext).bit_count() <= hs[2] and _hull_mask(iv, w | ext) == full
                for w in recent_h)
        if not inside:
            w = _hull_witness(n, iv, ext)
            runs[1] += 1
            _remember(recent_h, w)
            hs = _record(hs, w.bit_count(), idx)

        # con: n - 1 with an extreme vertex (no search); without one, con <=
        # n - 1 <= max once the max is n - 1, and a recent convex witness
        # (a proper subset) that is convex here bounds con below
        if ext:
            cs = _record(cs, n - 1, idx)
        elif not (cs is not None and cs[2] >= n - 1 and any(
                w.bit_count() >= cs[0] and _set_interval(iv, w) == w
                for w in recent_c)):
            w = _convex_witness(n, iv, ext)
            runs[2] += 1
            _remember(recent_c, w)
            cs = _record(cs, w.bit_count(), idx)
    return [gs, hs, cs], runs


def _record(slot, v: int, idx: int):
    """Fold value `v` of orientation `idx` into a [min, idx, max, idx] slot."""
    if slot is None:
        return [v, idx, v, idx]
    if v < slot[0]:
        slot[0], slot[1] = v, idx
    if v > slot[2]:
        slot[2], slot[3] = v, idx
    return slot


def _merge(acc, part):
    """Fold the slots of a later chunk into `acc`; chunks arrive in ascending
    index order, so `_record` keeps the least index per extremum."""
    return [_record(_record(slot, lo, lo_i), hi, hi_i)
            for slot, (lo, lo_i, hi, hi_i) in zip(acc, part)]


def fan_out(fn, jobs: list, workers: int | None = None) -> list:
    """``[fn(j) for j in jobs]``, across `workers` processes when there are
    two or more of each; `fn` must be top-level so it pickles."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers and workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


def _orbit_minima(g: Graph):
    """The sweep indices least in their orbit under Aut(g) x {id, full
    reversal}, ascending: a range when Aut(g) is trivial, else an array.

    A generator p of Aut(g) maps edge j to edge e(j) and flips it when p
    turns it high->low, so orientation index o maps to P(o) ^ flips, with P
    moving bit j to bit e(j); an image with edge 0 high->low is complemented
    (full reversal) back into the halved space.  P comes from three lookup
    tables over slices of the sweep index.  A bytearray marks the indices
    seen; each orbit is walked once, from its least index.
    """
    total = 1 << (g.m - 1)
    gens = automorphism_generators(g)
    if not gens:
        return range(total)
    full = (1 << g.m) - 1
    where = {e: j for j, e in enumerate(g.edges)}
    width = -(-(g.m - 1) // 3)  # sweep index bits per table
    low = (1 << width) - 1
    maps = []
    for p in gens:
        image, flips = [], 0
        for u, v in g.edges:
            a, b = p[u], p[v]
            j = where[(a, b) if a < b else (b, a)]
            image.append(1 << j)
            if a > b:
                flips |= 1 << j
        tables = []
        for t in range(3):
            # sweep index bit k is edge k + 1 (edge 0 stays low->high)
            part = image[1 + t * width:1 + (t + 1) * width]
            table = [0] * (1 << len(part))
            for x in range(1, len(table)):
                lsb = x & -x
                table[x] = table[x ^ lsb] | part[lsb.bit_length() - 1]
            tables.append(table)
        tables[0] = [y ^ flips for y in tables[0]]  # the flips ride on one table
        maps.append(tables)

    seen = bytearray(total)
    reps = array("q")
    idx = 0
    while idx >= 0:
        reps.append(idx)
        seen[idx] = 1
        stack = [idx]
        while stack:
            x = stack.pop()
            a, b, c = x & low, x >> width & low, x >> 2 * width
            for t0, t1, t2 in maps:
                y = t0[a] ^ t1[b] ^ t2[c]
                if y & 1:
                    y ^= full
                y >>= 1
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        idx = seen.find(0, idx + 1)
    return reps


def orientable_numbers(
    g: Graph,
    *,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
    workers: int | None = None,
) -> OrientableNumbers:
    """Sweep one orientation of each orbit of g's orientations under Aut(g)
    and full reversal, and aggregate the six extremes (neither changes g, h
    or con)."""
    if g.n < 3:
        raise ValueError("orientable numbers need at least three vertices")
    if not is_connected(g):
        raise ValueError("orientable numbers are defined here for connected graphs")
    if g.m > edge_budget:
        raise EdgeBudgetError(g.m, edge_budget)

    reps = _orbit_minima(g)
    # orbit minima crowd the low indices, so chunks split the minima evenly
    # rather than the index range
    parts = workers if workers and workers > 1 and len(reps) >= 4 * workers else 1
    size = -(-len(reps) // parts)
    chunks = [(g.n, g.edges, reps[lo:lo + size]) for lo in range(0, len(reps), size)]
    results = fan_out(_sweep_chunk, chunks, workers)
    acc = functools.reduce(_merge, [slots for slots, _ in results])
    searches = tuple(sum(col) for col in zip(*[runs for _, runs in results]))

    (gmin, gmin_i, gmax, gmax_i), (hmin, hmin_i, hmax, hmax_i), (cmin, cmin_i, cmax, cmax_i) = acc

    def wit(idx):
        return orientation_from_index(g, idx << 1)

    return OrientableNumbers(
        n=g.n,
        m=g.m,
        g_min=gmin,
        g_max=gmax,
        h_min=hmin,
        h_max=hmax,
        con_min=cmin,
        con_max=cmax,
        g_min_witness=wit(gmin_i),
        g_max_witness=wit(gmax_i),
        h_min_witness=wit(hmin_i),
        h_max_witness=wit(hmax_i),
        con_min_witness=wit(cmin_i),
        con_max_witness=wit(cmax_i),
        orientations=1 << (g.m - 1),
        exact_searches=searches,
        orbit_representatives=len(reps),
    )
