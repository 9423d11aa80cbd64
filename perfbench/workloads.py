"""The benchmark's three workloads: what each sets up, runs and checks.

Every workload calls the program through module attributes
(``orienters.extreme_free_orientation(...)``), so the tracer in
``tracing.py`` sees the same calls the untraced run makes.  All run in one
process: the machine has two cores, and fanning out over ``--workers``
would measure the scheduler rather than the program.

A pass returns its outcomes; ``check`` compares them, outside the timed
region, against the definitional frozenset code in ``oriconvex.geodesic``
and against the per-item digests pinned in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Speedometer
from cli_child import MARK
from oriconvex import cli, geodesic, graphs, invariants, orienters

DIGEST_HEX = 8  # hex digits kept per item: a wrong item matches by chance 1 in 2**32


def item_digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:DIGEST_HEX]


def split_digests(pinned: str) -> list[str]:
    return [pinned[i:i + DIGEST_HEX] for i in range(0, len(pinned), DIGEST_HEX)]


def mismatches(digests: list[str], pinned: str | None) -> list[bool]:
    """Per item, whether its digest differs from the pinned one (None: no pin)."""
    if pinned is None:
        return [False] * len(digests)
    want = split_digests(pinned)
    if len(want) != len(digests):
        return [True] * len(digests)
    return [a != b for a, b in zip(digests, want)]


def ignore(item: str) -> None:
    """The default ``note``: an untraced run does not label its items."""


def child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    """One set of inputs, run as a setup followed by timed passes.

    A pass times each item, in wall and CPU seconds scaled to the reference
    speed (``calibrate.py``).  The harness groups ``window`` consecutive
    items into a window and reports medians over windows.
    """

    name = ""
    in_child = False  # the timed pass runs in a child process
    setup_repeats = 5  # set-ups timed before each pass
    window = 1

    def __init__(self, root: Path, pins: dict) -> None:
        self.root = root
        self.pins = pins.get(self.name, {})

    def setup(self, seed: int, note=ignore):
        """The inputs for ``seed``; ``note(graph)`` names each graph worked on."""
        raise NotImplementedError

    def run(self, state, note=ignore, meter=None) -> tuple[object, list[tuple[float, float]]]:
        """The timed pass: (outcome, per item scaled (wall seconds, CPU seconds)).

        ``meter`` is the running ``Speedometer`` of an in-process pass;
        without one, the times are as measured.
        """
        raise NotImplementedError

    def run_in_process(self, state, note=ignore) -> tuple[object, list[tuple[float, float]]]:
        """The pass as the traced run makes it, with every layer in this process."""
        return self.run(state, note)

    def check(self, state, outcome, seed: int) -> tuple[int, int, str]:
        """(attempted, failed, digest of every item) for one pass."""
        raise NotImplementedError

    def pinned(self, seed: int) -> bool:
        """Whether the outputs for ``seed`` are pinned in expected.json."""
        return bool(self.pins)


class VerifyN6(Workload):
    """``oriconvex verify --suite all --format json data/connected_n6.g6``."""

    name = "verify_n6"
    in_child = True
    corpus = "data/connected_n6.g6"
    argv = ["verify", "--suite", "all", "--format", "json", corpus]

    def setup(self, seed: int, note=ignore):
        # what the user pays before the command does any work: start the
        # interpreter and import the CLI.  stdout is a pipe, so the wait
        # blocks until the child closes it; with no pipe, the timeout makes
        # subprocess.run poll for the exit in sleeps of up to 50 ms, which
        # split the set-up times into two levels 50 ms apart
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run([sys.executable, "-c", "import oriconvex.cli"], env=env,
                              cwd=self.root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        if proc.returncode != 0:
            raise RuntimeError(f"importing the CLI exited {proc.returncode}")
        return env

    def run(self, env, note=ignore, meter=None):
        # the user waits for the whole command: one item per pass.  The
        # child scales its own times, since a speedometer here would run
        # beside it on the other vCPU
        cpu0, t0 = child_cpu(), time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("cli_child.py")),
                               *self.argv], env=env, cwd=self.root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)
        sample = (time.perf_counter() - t0, child_cpu() - cpu0)
        lines = proc.stderr.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(MARK):
            scaled = json.loads(lines[-1][len(MARK):])
            sample = (scaled["wall_s"], scaled["cpu_s"])
        return (proc.returncode, proc.stdout), [sample]

    def run_in_process(self, env, note=ignore):
        # the CLI parses each line before working on it, and the tracer
        # names the graph from that call
        out = io.StringIO()
        cpu0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cwd = os.getcwd()
            os.chdir(self.root)
            try:
                code = cli.main(list(self.argv))
            finally:
                os.chdir(cwd)
        return (code, out.getvalue().encode()), [(time.perf_counter() - t0,
                                                   time.process_time() - cpu0)]

    def check(self, env, outcome, seed):
        code, stdout = outcome
        digests = [item_digest(ln) for ln in stdout.splitlines()]
        graphs_n = self.pins["graphs"]  # one JSON record per graph, then the summary
        bad = mismatches(digests, self.pins["line_digests"])
        if code == self.pins["exit_code"] and \
                hashlib.sha256(stdout).hexdigest() == self.pins["stdout_sha256"]:
            failed = 0
        elif code == self.pins["exit_code"] and len(digests) == graphs_n + 1 and not bad[-1]:
            failed = max(1, sum(bad))
        else:
            failed = graphs_n
        return graphs_n, failed, "".join(digests)


class ConstructMd2N8(Workload):
    """The acceptance suite's construction route over the min-degree-2 corpus."""

    name = "construct_md2_n8"
    setup_repeats = 3
    window = 256
    corpus = "data/mindeg2_connected_upto_n8.g6"

    def setup(self, seed: int, note=ignore):
        with open(self.root / self.corpus, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        # the corpus is sorted by order; a fixed shuffle, the same for every
        # seed, gives each window of 256 graphs a like mix of orders
        random.Random(0).shuffle(lines)
        return [(text, graphs.parse_graph6(text)) for text in lines]

    def run(self, corpus, note=ignore, meter=None):
        meter = meter or Speedometer()
        outcomes, spans = [], []
        for text, g in corpus:
            note(text)
            start = meter.start()
            d = orienters.extreme_free_orientation(g)
            con = invariants.convexity_number(d)
            pair = None
            if not graphs.is_complete(g):
                d2, sel = orienters.d2_construction(g)
                d1 = orienters.d1_from_d2(d2, sel)
                pair = (invariants.geodetic_number(d1), invariants.geodetic_number(d2),
                        invariants.hull_number(d1), invariants.hull_number(d2))
            spans.append(meter.stop(start))
            outcomes.append((d, con, pair))
        return outcomes, meter.scale(spans)

    def check(self, corpus, outcomes, seed):
        digests, ok = [], []
        for (text, g), (d, (con, cw), pair) in zip(corpus, outcomes):
            good = (d.is_orientation_of(g) and not geodesic.extreme_vertices(d)
                    and con < g.n - 1 and len(cw) == con)
            if pair is not None:
                (g1, _), (g2, _), (h1, _), (h2, _) = pair
                good = good and g1 < g2 and h1 < h2
            ok.append(good)
            digests.append(item_digest((text, d.arcs, con, cw, pair)))
        bad = mismatches(digests, self.pins.get("item_digests"))
        failed = sum(1 for good, b in zip(ok, bad) if b or not good)
        if len(outcomes) != len(corpus):
            failed = len(corpus)
        return len(corpus), failed, "".join(digests)


ORDERS = (12, 13, 14)
PER_ORDER = 8
EDGES_PER_VERTEX = 3
PINNED_SEARCH_SEEDS = 128  # expected.json pins search_xfree_n14 for seeds 0 .. 127


def random_graph(rng: random.Random, n: int) -> graphs.Graph:
    """A Hamiltonian cycle on a random vertex order plus random chords, m = 3n.

    The cycle makes the graph connected with minimum degree 2.  At this
    density the extreme-free orientation has con <= 4, so the con search
    scans nearly every size and the work per digraph depends on n, not on
    the seed; at m = 1.5n it varies fifty-fold from graph to graph.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i - 1], perm[i]))) for i in range(n)}
    while len(edges) < EDGES_PER_VERTEX * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return graphs.Graph.from_edges(n, sorted(edges))


def search_inputs(seed: int) -> list[graphs.Graph]:
    """PER_ORDER graphs of each order in ORDERS, interleaved, from ``seed``."""
    rng = random.Random(seed)
    return [random_graph(rng, n) for _ in range(PER_ORDER) for n in ORDERS]


class SearchXfreeN14(Workload):
    """g, h and con asked for one at a time on extreme-free digraphs, n = 12..14."""

    name = "search_xfree_n14"
    window = len(ORDERS)  # one digraph of each order

    def setup(self, seed: int, note=ignore):
        digraphs = []
        for g in search_inputs(seed):
            gid = graphs.encode_graph6(g)
            note(gid)
            digraphs.append((gid, orienters.extreme_free_orientation(g)))
        return digraphs

    def run(self, digraphs, note=ignore, meter=None):
        meter = meter or Speedometer()
        outcomes, spans = [], []
        for gid, d in digraphs:
            note(gid)
            start = meter.start()
            res = (invariants.geodetic_number(d), invariants.hull_number(d),
                   invariants.convexity_number(d))
            spans.append(meter.stop(start))
            outcomes.append(res)
        return outcomes, meter.scale(spans)

    def pinned(self, seed):
        return 0 <= seed < PINNED_SEARCH_SEEDS

    def check(self, digraphs, outcomes, seed):
        digests, ok = [], []
        for (gid, d), res in zip(digraphs, outcomes):
            ok.append(witnesses_hold(d, res))
            digests.append(item_digest((gid, d.arcs, res)))
        bad = mismatches(digests, self.pins["seeds"][str(seed)] if self.pins and self.pinned(seed)
                         else None)
        failed = sum(1 for good, b in zip(ok, bad) if b or not good)
        if len(outcomes) != len(digraphs):
            failed = len(digraphs)
        return len(digraphs), failed, "".join(digests)


def witnesses_hold(d: graphs.Digraph, res) -> bool:
    """Re-check g, h and con witnesses with the frozenset reference."""
    (g, gw), (h, hw), (con, cw) = res
    everything = frozenset(range(d.n))
    dist = geodesic.all_pairs_distances(d)
    return (len(gw) == g and geodesic.interval_of_set(d, dist, gw) == everything
            and len(hw) == h <= g and geodesic.convex_hull(d, hw) == everything
            and len(cw) == con and 0 < con < d.n - 1 and geodesic.is_convex(d, cw)
            and not geodesic.extreme_vertices(d))


WORKLOADS = {w.name: w for w in (VerifyN6, ConstructMd2N8, SearchXfreeN14)}
