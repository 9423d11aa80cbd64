#!/usr/bin/env python3
"""Exhaustive verification over a graph6 corpus, library-level.

Runs the separation and convexity suites plus the h/g case classifier over
every connected graph on 5 vertices, then prints the aggregate.  The same
run is available from the shell:

    oriconvex verify --suite all data/connected_n5.g6
    oriconvex classify data/connected_n6.g6 --workers 4
"""

from pathlib import Path

from oriconvex import corpus_run

corpus = Path(__file__).resolve().parent.parent / "data" / "connected_n5.g6"
report = corpus_run(corpus, suite="all")

for rec in report.records:
    nums = rec.numbers
    print(f"{rec.text:>6}  n={nums.n} m={nums.m:>2}  "
          f"g-:{nums.g_min} g+:{nums.g_max} "
          f"h-:{nums.h_min} h+:{nums.h_max} "
          f"con-:{nums.con_min} con+:{nums.con_max}  "
          f"{rec.classification.case}  {'ok' if rec.ok else 'VIOLATION'}")

print("\nsummary:", report.summary())
print("exit status a CLI run would report:", report.exit_status())
print("\nevery graph lands in case HG1 (h- = g- < h+ = g+), as every connected")
print("graph does up to n = 6.  data/connected_n7.g6 holds the first six outside")
print("HG1: FEqrg, FErto, FEyrg (HG3) and F?bao, F?beo, F?bew (HG4).  No graph")
print("up to n = 8 is HG5 or HG6; the classifier reports every case and never")
print("asserts that one is empty.")
