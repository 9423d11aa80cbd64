#!/usr/bin/env python3
"""Orienting the Petersen graph so that no vertex is extreme, step by step.

A vertex v stops being extremable the moment it has an in-arc u -> v and an
out-arc v -> w whose chord uw is missing or already points w -> u; the
construction only ever creates such configurations, so earlier work is
never undone.
"""

from oriconvex import (
    Digraph,
    Graph,
    extreme_free_orientation_steps,
    extreme_vertices,
    find_edge_disjoint_induced_cycles,
)

petersen = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),        # outer 5-cycle
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),        # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),        # spokes
])

print("packing edge-disjoint chordless cycles first:")
for cyc in find_edge_disjoint_induced_cycles(petersen):
    print("   cycle", cyc)

# each step is the out-masks so far: bit y of out[x] set means arc x -> y
for step, out in enumerate(extreme_free_orientation_steps(petersen), start=1):
    arcs = [(x, y) for x in range(petersen.n) for y in range(petersen.n) if out[x] >> y & 1]
    touched = {v for arc in arcs for v in arc}
    print(f"step {step}: {len(arcs)}/{petersen.m} edges oriented, "
          f"{len(touched)}/{petersen.n} vertices touched")

d = Digraph.from_arcs(petersen.n, arcs)
print("\nfinal orientation:", d.arcs)
print("extreme vertices:", sorted(extreme_vertices(d)) or "none")
print("so con(D) < n - 1 for this orientation, which is exactly what a")
print("minimum-degree-2 graph guarantees.")
