"""Spans around the calls from one oriconvex layer into the next.

The program itself carries no instrumentation, so the tracer wraps the
module attributes through which the layers call each other (for example
``oriconvex.verifier.orientable_numbers``) and restores them afterwards.
Every binding of a traced function in the package's modules is replaced,
so a call is caught whichever module it is made from.

A span records its name, the graph it works on, its parent span and its
start and end.  A layer's self time is the time of its spans minus the
time of their direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("graphs", "geodesic", "invariants", "orienters", "verifier", "cli")

# (layer, function): the public entry points one layer calls in another.
TRACED = (
    ("cli", "main"),
    ("verifier", "corpus_run"),
    ("verifier", "verify_separation"),
    ("verifier", "verify_convexity"),
    ("verifier", "classify_hg"),
    ("invariants", "orientable_numbers"),
    ("invariants", "geodetic_number"),
    ("invariants", "hull_number"),
    ("invariants", "convexity_number"),
    ("orienters", "extreme_free_orientation"),
    ("orienters", "d2_construction"),
    ("orienters", "d1_from_d2"),
    ("geodesic", "convex_hull"),
    ("geodesic", "extreme_vertices"),
    ("graphs", "parse_graph6"),
)

# Functions whose p50 per call is reported next to their count and total.
WITH_P50 = ("invariants.geodetic_number", "invariants.hull_number", "invariants.convexity_number")

# Counts read off a traced call's result: span name -> (metric, getter).
RESULT_COUNTS = {
    "invariants.orientable_numbers": ("invariants.orientations", lambda r: r.orientations),
    "verifier.verify_separation": ("verifier.hull_sets_checked", lambda r: r.hull_sets_checked),
}

NAME, ITEM, PARENT, START, END, COUNT = range(6)


class Tracer:
    """In-memory span log; one per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = ""

    def note(self, item: str) -> None:
        """Name the graph that the spans opened from now on work on."""
        self.item = item

    def wrap(self, name: str, fn):
        counter = RESULT_COUNTS.get(name, (None, None))[1]
        names_item = name == "graphs.parse_graph6"

        def traced(*args, **kwargs):
            if names_item:
                # a corpus run parses each line before working on it, so
                # the line names the graph every later span belongs to
                self.item = str(args[0]).strip()
            rec = [name, self.item, self._stack[-1] if self._stack else -1,
                   time.perf_counter(), 0.0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[COUNT] = counter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self, wall: float) -> dict[str, float]:
        """Per-function calls and seconds, counts, layer self times, residual.

        ``wall`` is the time the traced phase took; what its top-level spans
        do not cover is the benchmark's own loop, reported as the residual.
        """
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for layer, fname in TRACED:
            out[f"{layer}.{fname}.calls"] = 0
            out[f"{layer}.{fname}.s"] = 0.0
        for metric, _ in RESULT_COUNTS.values():
            out[metric] = 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        top = 0.0
        for i, rec in enumerate(self.spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            durations.setdefault(name, []).append(dur)
            out[name.split(".")[0] + ".self_s"] += dur - child_time[i]
            if name in RESULT_COUNTS:
                out[RESULT_COUNTS[name][0]] += rec[COUNT]
            if rec[PARENT] < 0:
                top += dur
        for name in WITH_P50:
            ds = durations.get(name)
            out[name + ".p50_ms"] = 1e3 * statistics.median(ds) if ds else 0.0
        out["trace.residual_s"] = wall - top
        return out

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped JSON lines, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "graph": rec[ITEM], "parent": rec[PARENT],
                    "start_us": round(1e6 * (rec[START] - t0), 1),
                    "end_us": round(1e6 * (rec[END] - t0), 1),
                }) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every binding of the TRACED functions through ``tracer``."""
    modules = [importlib.import_module("oriconvex")]
    modules += [importlib.import_module(f"oriconvex.{layer}") for layer in LAYERS]
    saved = []
    try:
        for layer, fname in TRACED:
            orig = getattr(importlib.import_module(f"oriconvex.{layer}"), fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in modules:
                if getattr(mod, fname, None) is orig:
                    saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
        yield tracer
    finally:
        for mod, fname, orig in reversed(saved):
            setattr(mod, fname, orig)
