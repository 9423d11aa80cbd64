#!/usr/bin/env python3
"""Regenerate the graph6 corpora under data/.

Writes one file per corpus and prints the counts; the expected values are
pinned so a generator regression is caught immediately.

    connected_n3.g6 .. connected_n8.g6   all connected graphs per order
    trees_upto_n7.g6                     all trees on 3..7 vertices
    mindeg2_connected_upto_n8.g6         all connected min-degree-2 graphs on 3..8 vertices

Takes about 5 s.  Listing the graphs on 8 vertices is nearly all of it;
connected_n8.g6 and the min-degree-2 file filter the same cached listing.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oriconvex.graphs import encode_graph6
from oriconvex.smallgraphs import connected_graphs, connected_min_degree_2, trees

EXPECTED_CONNECTED = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
EXPECTED_TREES = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11}
EXPECTED_MINDEG2 = {3: 1, 4: 3, 5: 11, 6: 61, 7: 507, 8: 7442}


def write(path: Path, graphs) -> int:
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs), encoding="ascii")
    return len(graphs)


def main() -> int:
    data = Path(__file__).resolve().parent.parent / "data"
    data.mkdir(exist_ok=True)
    t0 = time.perf_counter()

    for n in (3, 4, 5, 6, 7, 8):
        count = write(data / f"connected_n{n}.g6", connected_graphs(n))
        assert count == EXPECTED_CONNECTED[n], (n, count)
        print(f"connected_n{n}.g6: {count} graphs")

    all_trees = [g for n in range(3, 8) for g in trees(n)]
    count = write(data / "trees_upto_n7.g6", all_trees)
    assert count == sum(EXPECTED_TREES.values()), count
    print(f"trees_upto_n7.g6: {count} graphs")

    md2 = []
    for n in range(3, 9):
        layer = connected_min_degree_2(n)
        assert len(layer) == EXPECTED_MINDEG2[n], (n, len(layer))
        md2.extend(layer)
    count = write(data / "mindeg2_connected_upto_n8.g6", md2)
    print(f"mindeg2_connected_upto_n8.g6: {count} graphs")

    print(f"done in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
