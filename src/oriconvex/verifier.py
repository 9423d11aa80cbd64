"""Theorem suites, the five-case h/g classifier, and corpus runs.

Each suite recomputes its theorem's claim from scratch on one graph:
``verify_separation`` checks g- < g+ and h- < h+ both by exhaustive
orientation enumeration and along the constructive route (tournament pair
for complete graphs, the D1/D2 pair otherwise, including the two interval
containment claims for hull-sets of D2: all of them for n <= 5, beyond that
the minimum ones, scanned at size h(D2) only, with the intervals read off
the kernels that the g and h checks of D1 and D2 built), and ``verify_convexity``
checks con+ = n-1 and the end-vertex criterion for con- = n-1.  Failures
carry the offending orientation and vertex set, so they can be replayed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, fields

from . import geodesic
from .graphs import (
    DEFAULT_EDGE_BUDGET,
    Digraph,
    Graph,
    GraphFormatError,
    bits,
    encode_graph6,
    end_vertices,
    graph6_lines,
    is_complete,
    is_connected,
    mask_of,
    parse_graph6,
)
from .invariants import (
    OrientableNumbers,
    _digraph_kernel,
    convexity_number,
    geodetic_number,
    hull_number,
    orientable_numbers,
    orientable_numbers_each,
)
from .orienters import (
    complete_graph_orientations,
    d1_from_d2,
    d2_construction,
    extreme_free_orientation,
)

SUITES = ("separation", "convexity", "classify")

HG_CASES = {
    "HG1": "h- = g- < h+ = g+",
    "HG3": "h- = g- < h+ < g+",
    "HG4": "h- < g- < h+ = g+",
    "HG5": "h- < g- = h+ < g+",
    "HG6": "h- < h+ < g- < g+",
}


@dataclass(frozen=True)
class Failure:
    check: str
    message: str
    orientation: tuple[tuple[int, int], ...] | None = None
    vertex_set: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        """The fields that are not None, in declaration order."""
        return {name: v for name, v in vars(self).items() if v is not None}


class _SuiteReport:
    """`ok` and the JSON record of a suite's report, a dataclass whose fields
    run from `graph_id` to `failures`: the record is `graph`, `ok`, the
    fields between in declaration order (`numbers` as its six values), then
    the failures.  The fields are read off the instance's `__dict__`,
    which holds them in declaration order; `dataclasses.fields` would cost
    as much as the rest of the record again, once per line of a corpus."""

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        out = {"graph": self.graph_id, "ok": self.ok, **vars(self)}
        del out["graph_id"]
        if "numbers" in out:
            out["numbers"] = self.numbers.values()
        out["failures"] = [f.to_json_dict() for f in self.failures]
        return out


@dataclass
class SeparationReport(_SuiteReport):
    graph_id: str
    numbers: OrientableNumbers
    route: str  # "complete" or "induced-path"
    constructed: dict[str, int]
    hull_sets_checked: int
    failures: list[Failure] = field(default_factory=list)


@dataclass
class ConvexityReport(_SuiteReport):
    graph_id: str
    con_min: int
    con_max: int
    has_end_vertex: bool
    failures: list[Failure] = field(default_factory=list)


@dataclass(frozen=True)
class HgClassification:
    """The six orientable numbers and which published ordering they realize.

    The five published orderings miss h- < g- < h+ < g+, which none of the
    known theorems excludes; a graph realizing it gets the tag UNCLASSIFIED
    rather than a wrong case.
    """

    graph_id: str
    case: str
    g_min: int
    g_max: int
    h_min: int
    h_max: int
    con_min: int
    con_max: int

    def to_json_dict(self) -> dict:
        """The fields in declaration order, `graph_id` as `graph`."""
        out = {"graph": self.graph_id, **vars(self)}
        del out["graph_id"]
        return out


def classify_values(g_min: int, g_max: int, h_min: int, h_max: int) -> str:
    if h_min == g_min:
        return "HG1" if h_max == g_max else "HG3"
    if h_max == g_max:
        return "HG4"
    if g_min == h_max:
        return "HG5"
    if h_max < g_min:
        return "HG6"
    return "UNCLASSIFIED"


def _suite_numbers(g: Graph, numbers) -> OrientableNumbers:
    """Validate a suite's input; sweep its orientations unless `numbers` is given."""
    if g.n < 3:
        raise ValueError("theorem suites need at least three vertices")
    if not is_connected(g):
        raise ValueError("theorem suites need a connected graph")
    return numbers if numbers is not None else orientable_numbers(g)


def _hull_sets(d2: Digraph, dist2, sizes, held: int = 0) -> list[tuple[int, ...]]:
    """Hull-sets of d2 whose size is in `sizes` and that hold the vertex
    mask `held`, by size, then in lexicographic order; `dist2` is d2's
    distance matrix.  The minimum hull-sets are the scan at size h(D2)
    alone.  Every hull-set holds every extreme vertex, so with `held` the
    extreme vertices the scan still finds every hull-set of those sizes,
    from the subsets of the other vertices alone; merging each into `held`
    keeps the order of `itertools.combinations`."""
    full = frozenset(range(d2.n))
    fixed = bits(held)
    rest = [v for v in range(d2.n) if not held >> v & 1]
    candidates = (
        tuple(sorted(fixed + extra))
        for r in sizes
        if r >= len(fixed)
        for extra in itertools.combinations(rest, r - len(fixed))
    )
    return [s for s in candidates if geodesic.convex_hull(d2, s, dist2) == full]


def _set_interval(iv, s: int) -> int:
    """I[S] as a bitmask: S with I[u,v] ORed in for each pair of its vertices."""
    out = s
    verts = bits(s)
    for i, u in enumerate(verts):
        row = iv[u]
        for v in verts[i + 1:]:
            out |= row[v]
    return out


def _check_claims(d2, sel, d1, sizes, failures: list[Failure], held: int = 0) -> int:
    """Claims 1 and 2 on the hull-sets of d2 whose size is in `sizes`:
    I^k_D2(S) lies within I^k_D1(S - v1) at every step k until both stop
    growing.  The intervals are bitmasks read off the cached kernels of d2
    and d1, which `d1d2_check` has just built; the hull-sets come from the
    frozenset scan of `_hull_sets`, of the sets that hold `held`.  Returns
    the number of hull-sets."""
    hull_sets = _hull_sets(d2, geodesic.all_pairs_distances(d2), sizes, held)
    iv2, iv1 = _digraph_kernel(d2)[0], _digraph_kernel(d1)[0]
    for s in hull_sets:
        a = mask_of(s)
        b = a & ~(1 << sel.v1)
        level = 0
        while True:
            level += 1
            a2, b2 = _set_interval(iv2, a), _set_interval(iv1, b)
            if a2 & ~b2:
                failures.append(
                    Failure(
                        "claim1" if level == 1 else "claim2",
                        f"I^{level}_D2(S) not within I^{level}_D1(S - v1) "
                        f"for hull-set S={sorted(s)}",
                        orientation=d2.arcs,
                        vertex_set=bits(a2 & ~b2),
                    )
                )
                break
            if a2 == a and b2 == b:
                break
            a, b = a2, b2
    return len(hull_sets)


def d1d2_check(d1: Digraph, d2: Digraph) -> tuple[dict[str, int], list[Failure]]:
    """g and h of the D1/D2 pair, keyed g_d1, g_d2, h_d1, h_d2 in that order,
    and a construct-g or construct-h failure for each of g and h that does
    not drop from D2 to D1."""
    nums: dict[str, int] = {}
    failures = []
    for search, key in ((geodetic_number, "g"), (hull_number, "h")):
        lo, hi = search(d1)[0], search(d2)[0]
        nums[f"{key}_d1"], nums[f"{key}_d2"] = lo, hi
        if not lo < hi:
            failures.append(
                Failure(f"construct-{key}", f"{key}(D1)={lo} !< {key}(D2)={hi}", d2.arcs)
            )
    return nums, failures


def complete_check(d_max: Digraph, d_min: Digraph) -> tuple[dict[str, int], list[Failure]]:
    """g and h of the transitive tournament `d_max` and of `d_min`, the same
    with its Hamiltonian path reversed, keyed g_of_transitive,
    g_of_reversed_path, h_of_transitive, h_of_reversed_path in that order,
    and a complete-route failure for each that is not n or 2 respectively."""
    nums: dict[str, int] = {}
    failures = []
    for search, key in ((geodetic_number, "g"), (hull_number, "h")):
        for name, d, expect in (
            (f"{key}_of_transitive", d_max, d_max.n),
            (f"{key}_of_reversed_path", d_min, 2),
        ):
            nums[name] = val = search(d)[0]
            if val != expect:
                failures.append(
                    Failure("complete-route", f"{name}={val}, expected {expect}", d.arcs)
                )
    return nums, failures


def verify_separation(g: Graph, *, numbers: OrientableNumbers | None = None) -> SeparationReport:
    """Check g- < g+ and h- < h+ by enumeration and by construction."""
    numbers = _suite_numbers(g, numbers)
    failures: list[Failure] = []
    if not numbers.g_min < numbers.g_max:
        failures.append(Failure("g-separation", f"g-={numbers.g_min} !< g+={numbers.g_max}"))
    if not numbers.h_min < numbers.h_max:
        failures.append(Failure("h-separation", f"h-={numbers.h_min} !< h+={numbers.h_max}"))

    if is_complete(g):
        route = "complete"
        constructed, found = complete_check(*complete_graph_orientations(g.n))
        failures += found
        hull_sets_checked = 0
    else:
        route = "induced-path"
        d2, sel = d2_construction(g)
        d1 = d1_from_d2(d2, sel)
        constructed, found = d1d2_check(d1, d2)
        failures += found
        h2 = constructed["h_d2"]
        # every hull-set for n <= 5, the minimum ones (size h(D2)) beyond,
        # from the supersets of D2's extreme vertices, which all of them hold
        if g.n <= 5:
            sizes, held = range(1, g.n + 1), 0
        else:
            sizes, held = range(h2, h2 + 1), _digraph_kernel(d2)[1]
        hull_sets_checked = _check_claims(d2, sel, d1, sizes, failures, held)
        if not hull_sets_checked:
            failures.append(
                Failure("claims", f"no hull-set of D2 has size h(D2)={h2}", d2.arcs)
            )

    return SeparationReport(
        graph_id=encode_graph6(g),
        numbers=numbers,
        route=route,
        constructed=constructed,
        hull_sets_checked=hull_sets_checked,
        failures=failures,
    )


def verify_convexity(g: Graph, *, numbers: OrientableNumbers | None = None) -> ConvexityReport:
    """Check con+ = n-1 and [con- = n-1 iff an end-vertex exists]."""
    numbers = _suite_numbers(g, numbers)
    failures: list[Failure] = []
    n = g.n
    if numbers.con_max != n - 1:
        failures.append(Failure("con-max", f"con+={numbers.con_max}, expected {n - 1}"))

    # constructive con+ witness: every edge runs low -> high, so vertex 0,
    # the lowest, is a source
    d_out = Digraph(n, g.edges)
    val, _ = convexity_number(d_out)
    if val != n - 1:
        failures.append(
            Failure("con-max-witness", f"all-out orientation has con={val}", d_out.arcs)
        )

    has_end = bool(end_vertices(g))
    if has_end:
        if numbers.con_min != n - 1:
            failures.append(
                Failure(
                    "con-min-endvertex",
                    f"end-vertex present but con-={numbers.con_min} != {n - 1}",
                )
            )
    else:
        if not numbers.con_min < n - 1:
            failures.append(
                Failure("con-min", f"no end-vertex but con-={numbers.con_min} = n-1")
            )
        # connected, n >= 3 and no end-vertex: minimum degree at least 2
        d = extreme_free_orientation(g)
        val, wit = convexity_number(d)
        if val >= n - 1:
            failures.append(
                Failure("extreme-free-con", f"constructed orientation has con={val}", d.arcs, wit)
            )

    return ConvexityReport(
        graph_id=encode_graph6(g),
        con_min=numbers.con_min,
        con_max=numbers.con_max,
        has_end_vertex=has_end,
        failures=failures,
    )


def classify_hg(g: Graph, *, numbers: OrientableNumbers | None = None) -> HgClassification:
    numbers = _suite_numbers(g, numbers)
    return HgClassification(
        graph_id=encode_graph6(g),
        case=classify_values(numbers.g_min, numbers.g_max, numbers.h_min, numbers.h_max),
        **numbers.values(),
    )


# ---------------------------------------------------------------------------
# corpus runs


@dataclass
class LineRecord:
    line: int
    text: str
    status: str  # "ok", "parse-error", "skipped"
    reason: str = ""
    numbers: OrientableNumbers | None = None  # the sweep's result, "ok" lines only
    separation: SeparationReport | None = None
    convexity: ConvexityReport | None = None
    classification: HgClassification | None = None

    @property
    def ok(self) -> bool:
        if self.status != "ok":
            return self.status == "skipped"
        return all(rep is None or rep.ok for rep in (self.separation, self.convexity))

    def to_json_dict(self) -> dict:
        out: dict = {"line": self.line, "graph": self.text, "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        for key in ("separation", "convexity", "classification"):
            rep = getattr(self, key)
            if rep is not None:
                out[key] = rep.to_json_dict()
        out["ok"] = self.ok
        return out


@dataclass
class CorpusReport:
    """The records of a corpus run and their tally: `graphs` counts the
    checked lines, `violations` those of them that failed a suite."""

    records: list[LineRecord]
    suites: tuple[str, ...]
    graphs: int = field(init=False)
    parse_errors: int = field(init=False)
    skipped: int = field(init=False)
    violations: int = field(init=False)

    def __post_init__(self) -> None:
        # a parse error is not ok either, but it is no violation
        tally = Counter("violation" if r.status == "ok" and not r.ok else r.status
                        for r in self.records)
        self.graphs = tally["ok"] + tally["violation"]
        self.parse_errors, self.skipped = tally["parse-error"], tally["skipped"]
        self.violations = tally["violation"]

    def case_histogram(self) -> dict[str, int]:
        cases = Counter(r.classification.case for r in self.records if r.classification)
        return dict(sorted(cases.items()))

    def summary(self) -> dict:
        """The line count, the tally in field order, the suites run and, with
        classify, the case histogram."""
        out = {"lines": len(self.records)}
        out.update((f.name, getattr(self, f.name)) for f in fields(self)[2:])
        out["suites"] = list(self.suites)
        if "classify" in self.suites:
            out["cases"] = self.case_histogram()
        return out

    def exit_status(self) -> int:
        """0 all pass, 1 theorem violation, 2 input trouble or no graph checked."""
        if self.parse_errors or not self.graphs:
            return 2
        if self.violations:
            return 1
        return 0


def _normalize_suites(suite: str) -> tuple[str, ...]:
    if suite == "all":
        return SUITES
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITES + ('all',)}")
    return (suite,)


def _line_entries(lines, edge_budget: int):
    """Each nonblank graph6 line, in order, as its record and the graph the
    suites take: an "ok" record to fill in and its graph, or a finished
    parse-error or skipped record and None."""
    for lineno, text in graph6_lines(lines):
        try:
            g = parse_graph6(text)
        except GraphFormatError as exc:
            yield LineRecord(lineno, text, "parse-error", str(exc)), None
            continue
        if g.n < 3 or not is_connected(g):
            reason = "theorem suites need a connected graph on >= 3 vertices"
        elif g.m > edge_budget:
            reason = f"{g.m} edges exceeds the budget of {edge_budget}"
        else:
            yield LineRecord(lineno, text, "ok"), g
            continue
        yield LineRecord(lineno, text, "skipped", reason), None


def corpus_run(
    lines,
    suite="all",
    *,
    edge_budget: int = DEFAULT_EDGE_BUDGET,
    workers: int | None = None,
) -> CorpusReport:
    """Run the selected suites over graph6 lines (an iterable or a file path,
    read line by line by `graphs.graph6_lines`).

    One record per nonblank input line, in input order; parse failures are
    recorded and the run continues.  The graphs are swept by
    `invariants.orientable_numbers_each`, consecutive ones that fit in one
    batch in packs that share one BFS, whatever lines lie between them;
    `workers` splits the packs across processes.  The suites then run on
    each graph in line order, in this process.  A serial run reads the
    lines only as far as the sweep needs them, up to the line after the
    pack being swept; with two or more workers, up to a window of twice as
    many packs as processes ahead of the suites.
    """
    suites = _normalize_suites(suite)
    if edge_budget < 0:
        raise ValueError(f"edge budget must be at least 0, got {edge_budget}")
    entries, ahead = itertools.tee(_line_entries(lines, edge_budget))
    swept = orientable_numbers_each((g for _, g in ahead if g is not None),
                                    edge_budget=edge_budget, workers=workers)
    records = []
    for record, g in entries:
        if g is not None:
            record.numbers = numbers = next(swept)
            if "separation" in suites:
                record.separation = verify_separation(g, numbers=numbers)
            if "convexity" in suites:
                record.convexity = verify_convexity(g, numbers=numbers)
            if "classify" in suites:
                record.classification = classify_hg(g, numbers=numbers)
        records.append(record)
    return CorpusReport(records=records, suites=suites)
