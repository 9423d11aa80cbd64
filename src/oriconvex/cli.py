"""Command-line front end: invariants, orient, verify, classify.

Everything printed on stdout is derived deterministically from the input
and the flags; timing and diagnostics go to stderr.  Each command builds
one triple per result, its JSON record, CSV row and text lines, and
`_write`, the one writer of stdout, prints the asked format.  Exit codes:
0 all checks pass, 1 a theorem check failed, 2 input or usage trouble, or
a corpus run in which no graph was checked.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .graphs import (
    _LIST_MAX_N,
    DEFAULT_EDGE_BUDGET,
    Graph,
    GraphFormatError,
    encode_graph6,
    graph6_lines,
    is_complete,
    parse_arc_list,
    parse_edge_list,
    parse_graph6,
)
from .invariants import (
    NUMBER_KEYS,
    digraph_report,
    geodetic_number,
    orientable_numbers_each,
)
from .orienters import (
    complete_graph_orientations,
    d1_from_d2,
    d2_construction,
    extreme_free_orientation,
)
from .verifier import SUITES, complete_check, corpus_run, d1d2_check

_SUP = dict(zip(NUMBER_KEYS, ("g⁻", "g⁺", "h⁻", "h⁺", "con⁻", "con⁺")))


def _source(value: str):
    """A graph6 source: stdin's bytes for '-', else the path.  `graph6_lines`
    reads either as latin-1 with lines ending at '\n' only, so a non-ASCII
    byte or a bare '\r' fails the one line where it stands."""
    return sys.stdin.buffer if value == "-" else value


def _inline_list(value: str) -> str:
    """An --edges or --arcs value as text: stdin's bytes as latin-1 for '-',
    '\\n' a newline."""
    if value == "-":
        value = sys.stdin.buffer.read().decode("latin-1")
    return value.replace("\\n", "\n")


def _input_graphs(args, flags: str) -> list[Graph]:
    """The graphs of --edges or --input; `flags` names the caller's input
    flags when neither is given."""
    if args.edges is not None:
        return [parse_edge_list(_inline_list(args.edges))]
    if args.input is None:
        raise GraphFormatError(f"no input given: use {flags}")
    graphs = []
    for lineno, text in graph6_lines(_source(args.input)):
        try:
            graphs.append(parse_graph6(text))
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno} ({text}): {exc}") from None
    if not graphs:
        raise GraphFormatError("no graphs in input")
    return graphs


def _one_graph(args, flags: str) -> Graph:
    graphs = _input_graphs(args, flags)
    if len(graphs) != 1:
        raise GraphFormatError(f"orient takes one graph, got {len(graphs)}")
    return graphs[0]


def _arcs_str(d) -> str:
    return " ".join(f"{u}->{v}" for u, v in d.arcs)


def _fail_lines(failures, indent: str = "") -> list[str]:
    return [f"{indent}FAIL {f.check}: {f.message}" for f in failures]


def _write(fmt: str, results, header=None) -> None:
    """The one writer of stdout.  Each result is a triple (JSON record, CSV
    row, text lines); write each in `fmt`, the CSV rows under `header`.  A
    triple whose CSV row is None, the corpus summary, has no CSV form."""
    out = sys.stdout
    if fmt == "csv":
        rows = csv.writer(out)
        rows.writerow(header)
    for rec, row, lines in results:
        if fmt == "json":
            out.write(json.dumps(rec) + "\n")
        elif fmt == "text":
            out.writelines(line + "\n" for line in lines)
        elif row is not None:
            rows.writerow(row)


def _graph_results(graphs, args):
    """Each graph's triple in input order, yielded as its sweep finishes.
    `invariants.orientable_numbers_each` sweeps them: consecutive graphs
    that fit in one batch share one BFS, and --workers splits the packs.
    The sweep validates each graph, so a bad one fails as what it is (not a
    graph6 encoding limit) after those before.  Each graph's line on stderr
    gives the time since the line before, so a pack's sweep shows on its
    first graph."""
    t0 = time.perf_counter()
    swept = orientable_numbers_each(graphs, edge_budget=args.budget, workers=args.workers)
    for g, nums in zip(graphs, swept):
        gid = encode_graph6(g)
        print(f"{gid}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        t0 = time.perf_counter()
        rec = nums.to_json_dict()
        rec["graph"] = gid
        vals = " ".join(f"{_SUP[k]}={getattr(nums, k)}" for k in NUMBER_KEYS)
        lines = [f"{gid} (n={g.n} m={g.m}): {vals}"]
        lines += [f"  {_SUP[k]} witness: {_arcs_str(getattr(nums, k + '_witness'))}"
                  for k in NUMBER_KEYS]
        yield rec, [gid, g.n, g.m, *(getattr(nums, k) for k in NUMBER_KEYS)], lines


def cmd_invariants(args) -> int:
    if args.arcs is not None:
        rep = digraph_report(parse_arc_list(_inline_list(args.arcs)))
        lines = [f"digraph on {rep.n} vertices: g={rep.g} h={rep.h} con={rep.con}"]
        lines += [f"  {name} witness: {set(getattr(rep, name + '_witness'))}"
                  for name in ("geodetic", "hull", "convexity")]
        _write(args.format, [(rep.to_json_dict(), [rep.n, rep.g, rep.h, rep.con], lines)],
               ["n", "g", "h", "con"])
    else:
        graphs = _input_graphs(args, "--input, --edges or --arcs")
        _write(args.format, _graph_results(graphs, args), ["graph", "n", "m", *NUMBER_KEYS])
    return 0


def cmd_orient(args) -> int:
    """Build the asked-for orientation, check it, and write either its JSON
    record or its text lines, whose last line is the self-check; a failed
    check replaces that line with one FAIL line each and exits 1."""
    if args.n is not None and args.mode != "complete":
        raise ValueError(f"--n is for mode complete only, not {args.mode}")
    failures = []
    if args.mode == "complete":
        if args.n is not None:
            if args.n > _LIST_MAX_N:
                raise ValueError(f"--n {args.n} is over the limit of {_LIST_MAX_N}")
            n = args.n
        else:
            g = _one_graph(args, "--input, --edges or --n")
            if not is_complete(g):
                raise ValueError("orient complete needs a complete graph (or --n)")
            n = g.n
        if n < 3:
            raise ValueError("orient complete needs n >= 3")
        d_max, d_min = complete_graph_orientations(n)
        nums, failures = complete_check(d_max, d_min)
        g_hi, g_lo, h_hi, h_lo = nums.values()
        rec = {"transitive": d_max.arcs, "reversed_path": d_min.arcs, **nums}
        # the witness search reads d_min's kernel, which the check left cached
        lines = [
            f"transitive tournament: {_arcs_str(d_max)}",
            f"reversed-path tournament: {_arcs_str(d_min)}",
            f"self-check: g(transitive)={g_hi}, h(transitive)={h_hi}, "
            f"h(reversed-path)={h_lo}, g(reversed-path)={g_lo}, "
            f"witness {set(geodetic_number(d_min)[1])}",
        ]
    elif args.mode == "extreme-free":
        # extreme_free_orientation raises ConstructionError unless no vertex
        # is extreme, so the self-check reports its postcondition
        d = extreme_free_orientation(_one_graph(args, "--input or --edges"))
        rec = {"arcs": d.arcs, "extreme_vertices": []}
        lines = [f"orientation: {_arcs_str(d)}", "self-check: 0 extreme vertices"]
    else:
        g = _one_graph(args, "--input or --edges")
        # below 3 vertices orient complete has nothing to offer either
        if g.n >= 3 and is_complete(g):
            raise ValueError("orient d1d2 needs a graph that is not complete: "
                             "use orient complete")
        d2, sel = d2_construction(g)
        d1 = d1_from_d2(d2, sel)
        # d2_construction raises ConstructionError unless v1 is a sink of D2;
        # the drops from D2 to D1 are checked here
        nums, failures = d1d2_check(d1, d2)
        g1, g2, h1, h2 = nums.values()
        rec = {"selection": sel.to_json_dict(), "d2": d2.arcs, "d1": d1.arcs, **nums}
        lines = [
            f"induced path: {sel.v0}-{sel.v1}-{sel.v2}",
            f"D2: {_arcs_str(d2)}",
            f"D1: {_arcs_str(d1)}",
            f"self-check: v1={sel.v1} is a sink of D2; "
            f"g(D1)={g1} < g(D2)={g2}, h(D1)={h1} < h(D2)={h2}",
        ]
    if failures:
        rec["failures"] = [f.to_json_dict() for f in failures]
        lines[-1:] = _fail_lines(failures)
    _write(args.format, [(rec, None, lines)])
    return 1 if failures else 0


def _corpus_results(report):
    """Each corpus line's triple, its text a status line and the failures
    indented under it, then the summary's, which has no CSV row."""
    for rec in report.records:
        cls, nums = rec.classification, rec.numbers
        row = [rec.line, rec.text, rec.status, rec.ok, cls.case if cls else ""]
        row += [getattr(nums, k) for k in NUMBER_KEYS] if nums is not None else [""] * 6
        if rec.status != "ok":
            lines = [f"line {rec.line} ({rec.text}): {rec.status}: {rec.reason}"]
        else:
            bits = []
            if rec.separation is not None:
                bits.append(
                    f"g⁻={nums.g_min}<g⁺={nums.g_max} h⁻={nums.h_min}<h⁺={nums.h_max} "
                    f"route={rec.separation.route}"
                )
            if rec.convexity is not None:
                bits.append(f"con⁻={nums.con_min} con⁺={nums.con_max}")
            if cls is not None:
                bits.append(f"case={cls.case}")
            lines = [f"{rec.text}: {'pass' if rec.ok else 'FAIL'} {' '.join(bits)}"]
            for rep in (rec.separation, rec.convexity):
                if rep is not None:
                    lines += _fail_lines(rep.failures, "  ")
        yield rec.to_json_dict(), row, lines
    summary = report.summary()
    yield {"summary": summary}, None, ["summary: " + json.dumps(summary)]


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    report = corpus_run(_source(args.corpus), suite=args.suite,
                        edge_budget=args.budget, workers=args.workers)
    print(f"{len(report.records)} lines in {time.perf_counter() - t0:.2f}s",
          file=sys.stderr)
    _write(args.format, _corpus_results(report),
           ["line", "graph", "status", "ok", "case", *NUMBER_KEYS])
    if not report.graphs:
        raise ValueError("no graph was checked")
    return report.exit_status()


def _add_input_options(p, with_arcs=False):
    """The input flags, as a group of which at most one may be given."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--input", help="graph6 file, one graph per line ('-' for stdin)")
    group.add_argument("--edges", help="inline edge list: 'n' then 'u v' pairs ('-' for stdin)")
    if with_arcs:
        group.add_argument("--arcs", help="inline arc list for a digraph ('-' for stdin)")
    return group


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oriconvex",
        description="Geodetic, hull and convexity numbers over digraph orientations",
    )
    # the output format and the settings of the orientation sweep, for the
    # commands that run one
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sweep.add_argument("--budget", type=int, default=DEFAULT_EDGE_BUDGET,
                       help="edge budget guarding the 2^m enumeration (default %(default)s)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (>= 1) across packs of input graphs or "
                       "corpus lines (consecutive small graphs share one sweep BFS)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[sweep], help="six orientable numbers "
                       "of a graph, or g/h/con of a digraph")
    _add_input_options(p, with_arcs=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("orient", help="run a constructive orientation")
    p.add_argument("mode", choices=("extreme-free", "d1d2", "complete"))
    p.add_argument("--format", choices=("text", "json"), default="text")
    inputs = _add_input_options(p)
    inputs.add_argument("--n", type=int, help="order of the complete graph (mode complete)")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("verify", parents=[sweep],
                       help="run theorem suites over a graph6 corpus")
    p.add_argument("corpus", help="graph6 file ('-' reads stdin)")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[sweep],
                       help="h/g case classification over a corpus (verify --suite classify)")
    p.add_argument("corpus", help="graph6 file ('-' reads stdin)")
    p.set_defaults(func=cmd_verify, suite="classify")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one place an exception becomes exit 2: every problem the CLI
    # finds, and bad input, raises ValueError (GraphFormatError,
    # EdgeBudgetError and ScanBudgetError among them), an unreadable file
    # OSError; a closed stdout pipe, itself an OSError, is caught first as
    # no error
    try:
        # the sweep settings, checked once for every command that takes them
        budget = getattr(args, "budget", DEFAULT_EDGE_BUDGET)
        if budget < 0:
            raise ValueError(f"edge budget must be at least 0, got {budget}")
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if budget > DEFAULT_EDGE_BUDGET:
            print(
                f"warning: edge budget {budget} allows up to 2^{budget} "
                f"orientations per graph; expect long sweeps",
                file=sys.stderr,
            )
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
