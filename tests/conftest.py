import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oriconvex.graphs import Graph
from oriconvex.invariants import orientable_numbers_each
from oriconvex.smallgraphs import connected_graphs

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(s: int, t: int) -> Graph:
    return Graph.from_edges(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def cycle_plus_chords(rng: random.Random, n: int, m: int) -> Graph:
    """A Hamiltonian cycle on a random vertex order plus random chords up
    to m edges: connected, with minimum degree 2, so it has an orientation
    with no extreme vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i - 1], perm[i]))) for i in range(n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


@pytest.fixture(scope="session")
def connected_upto_6():
    """All connected graphs per order, 3 <= n <= 6."""
    return {n: connected_graphs(n) for n in (3, 4, 5, 6)}


@pytest.fixture(scope="session")
def swept_numbers(connected_upto_6):
    """One exhaustive orientation sweep shared by the theorem criteria, each
    order swept in packs, as `verify` sweeps a corpus.

    Returns ({(n, index): OrientableNumbers}, elapsed_seconds).
    """
    t0 = time.perf_counter()
    table = {}
    for n, graphs in connected_upto_6.items():
        for i, nums in enumerate(orientable_numbers_each(graphs)):
            table[(n, i)] = nums
    return table, time.perf_counter() - t0
