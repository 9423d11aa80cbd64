"""Times scaled to a fixed reference speed of the host.

On a shared host the speed of a core changes under the benchmark: on a
2-vCPU KVM guest (Xeon, 2.1 GHz) it moved between levels up to 1.7 times
apart, for a second at a time or for a whole run, and CPU time moved with
wall time.  No statistic over one run removes a level that lasts the whole
run.  So the benchmark measures the host's speed as it goes, with a fixed
pure-Python loop, and scales every time it reports to the speed at which
that loop takes ``REF_S``:

    scaled time = measured time * REF_S / (time the loop took nearby)

In a probe on that guest the median time of one search item moved 27%
between four 20-second runs, and the same median scaled this way 0.5%.
A change to the program moves the scaled times as it moves the measured
ones; a change of the host's speed moves both the program and the loop.

A ``Speedometer`` runs the loop from a SIGALRM timer every ``PERIOD_S``
while the program works in the same process, and subtracts the loop's own
time from every span it measures.  Work in a child process is timed by a
speedometer in the child (``cli_child.py``), or, for a short child, by
``bracketed``: the loop just before and just after it.  Nothing may run the
loop beside a child, on the other vCPU: on that guest the two vCPUs slowed
each other down by half.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import random
import signal
import statistics
import time

REF_S = 0.003  # the reference speed: one reference_loop() takes 3 ms
PERIOD_S = 0.1  # one loop per 100 ms of work

# Fixed inputs of the loop, the same in every run: a sparse graph as
# adjacency lists and as bitmasks, and a closure table on 12 points.
_rng = random.Random(0)
_ADJ = [sorted(_rng.sample(range(300), 4)) for _ in range(300)]
_ADJ_MASKS = [sum(1 << v for v in a) for a in _ADJ]
_CLOSE = [_rng.getrandbits(12) for _ in range(12)]


def _arithmetic() -> int:
    x = s = 0
    for _ in range(4_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        s ^= x >> 3
    return s


def _bfs_lists() -> int:
    total = 0
    for src in range(0, 300, 40):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            du = dist[u] + 1
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = du
                    queue.append(v)
        total += sum(dist.values())
    return total


def _bfs_masks() -> int:
    total = 0
    for src in range(0, 300, 25):
        seen = front = 1 << src
        while front:
            reach, f = 0, front
            while f:
                low = f & -f
                reach |= _ADJ_MASKS[low.bit_length() - 1]
                f ^= low
            front = reach & ~seen
            seen |= front
            total += 1
    return total


def _closed(s: int) -> int:
    out = s
    for v in range(12):
        if s >> v & 1:
            out |= _CLOSE[v]
    return out


def _subset_scan() -> int:
    hits = 0
    for size in (3, 9):
        for combo in itertools.combinations(range(12), size):
            s = 0
            for v in combo:
                s |= 1 << v
            if _closed(s) == s:
                hits += 1
    return hits


def reference_loop() -> tuple[float, float]:
    """Run the fixed loop once: (wall seconds, CPU seconds).

    It mixes the kinds of work the program does in the interpreter
    (arithmetic, lists and dicts, bitmasks, small calls over subsets), as
    one kind alone followed the program's speed less closely: over twenty
    3-second windows the ratio of one search item to the loop varied 1.5%
    (coefficient of variation) with the mix, and 1.7-2.4% with each part
    alone, where the item's own time varied 11%.
    """
    cpu0, t0 = time.process_time(), time.perf_counter()
    _arithmetic()
    _bfs_lists()
    _bfs_masks()
    _subset_scan()
    return time.perf_counter() - t0, time.process_time() - cpu0


def bracketed(fn, *args):
    """(fn(*args), its wall seconds scaled by the loop run before and after)."""
    before, _ = reference_loop()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    after, _ = reference_loop()
    return result, wall * (REF_S / before + REF_S / after) / 2


class Speedometer:
    """Samples the host's speed while the program runs in this process.

    ``start``/``stop`` bracket one span of work; ``scale`` turns the spans
    into scaled (wall, CPU) seconds.  A span's speed is the mean of the
    samples taken inside it, or the nearest sample when it is shorter
    than ``PERIOD_S``.  A speedometer that never ran scales nothing.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (time, wall speed, CPU speed)
        self.spent_wall = self.spent_cpu = 0.0  # time taken by the loop itself

    def _tick(self, signum, frame) -> None:
        wall, cpu = reference_loop()
        self.samples.append((time.perf_counter(), REF_S / wall, REF_S / max(cpu, 1e-6)))
        self.spent_wall += wall
        self.spent_cpu += cpu

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _now(self) -> tuple[float, float, float, float]:
        # a tick between the reads would count its loop on one side only
        while True:
            spent = self.spent_wall
            now = (time.perf_counter(), time.process_time(), self.spent_wall, self.spent_cpu)
            if self.spent_wall == spent:
                return now

    def start(self) -> tuple[float, float, float, float]:
        return self._now()

    def stop(self, start) -> tuple[float, float, float, float]:
        """(start, end, wall, CPU) of the span, the loop's own time taken out."""
        t0, c0, w0, k0 = start
        t1, c1, w1, k1 = self._now()
        return t0, t1, (t1 - t0) - (w1 - w0), (c1 - c0) - (k1 - k0)

    def scale(self, spans) -> list[tuple[float, float]]:
        """Scaled (wall, CPU) seconds of each span from ``stop``."""
        if not self.samples:
            return [(wall, cpu) for _, _, wall, cpu in spans]
        times = [t for t, _, _ in self.samples]
        out = []
        for t0, t1, wall, cpu in spans:
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            if hi == lo:  # no sample inside: the nearest one
                near = min((i for i in (lo - 1, lo) if 0 <= i < len(times)),
                           key=lambda i: abs(times[i] - (t0 + t1) / 2))
                lo, hi = near, near + 1
            inside = self.samples[lo:hi]
            out.append((wall * statistics.fmean(s[1] for s in inside),
                        cpu * statistics.fmean(s[2] for s in inside)))
        return out
