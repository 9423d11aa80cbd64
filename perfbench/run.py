#!/usr/bin/env python3
"""Benchmark for oriconvex: end-to-end metrics, or a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_n6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The workloads are described in ``perfbench/README.md``.  With ``--trace 0``
the run makes timed passes, each after several timed set-ups, until
``--seconds`` is spent and reports the end-to-end metrics named in
``BENCHMARK.json``, every time scaled to a reference speed of the host
(``calibrate.py``).  ``--workload all`` runs each workload in a child
process of its own.
With ``--trace 1`` it alternates untraced and traced in-process passes and
reports the per-layer metrics.  Every pass is checked outside its timed
region.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details and
the machine's facts.  The exit status is 0 when every item was correct, 1
when one was not, and 2 when the checkout lacks the program or its data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Speedometer, bracketed
from tracing import Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
REQUIRED = ("src/oriconvex/__init__.py", "data/connected_n6.g6",
            "data/mindeg2_connected_upto_n8.g6")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with its count beyond, zero, so a reader can tell.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def machine_facts() -> dict:
    """nproc, CPU model, L2/L3 sizes and the Python version, read-only."""
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "cpu_model": "", "l2_cache": "", "l3_cache": ""}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    return facts


def peak_rss_mb(in_child: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_child else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Tally:
    """Items attempted and failed over a run's passes, and their digests."""

    def __init__(self, wl, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.digests: set[str] = set()

    def check(self, state, outcome) -> None:
        attempted, failed, digest = self.wl.check(state, outcome, self.seed)
        self.attempted += attempted
        self.failed += failed
        self.digests.add(digest)

    def close(self) -> None:
        # passes over the same inputs must agree, pinned or not
        if len(self.digests) > 1:
            self.failed = self.attempted


def timed_setup(wl, seed: int, meter: Speedometer):
    """(inputs, scaled set-up seconds)."""
    if wl.in_child:
        return bracketed(wl.setup, seed)
    start = meter.start()
    state = wl.setup(seed)
    ((wall, _),) = meter.scale([meter.stop(start)])
    return state, wall


def measure(wl, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    # every pass runs on fresh inputs, set up a few times just before it;
    # every time is scaled to the reference speed (calibrate.py), and a
    # child's speedometer runs in the child, not beside it
    meter = Speedometer()
    setups = []
    tally = Tally(wl, seed)
    walls, passes = [], []
    start = time.perf_counter()
    with contextlib.nullcontext() if wl.in_child else meter.running():
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            for _ in range(wl.setup_repeats):
                state = outcome = None  # the peak RSS holds one set of inputs and outputs
                state, setup_s = timed_setup(wl, seed, meter)
                setups.append(setup_s)
            t0 = time.perf_counter()
            outcome, samples = wl.run(state, meter=meter)
            walls.append(time.perf_counter() - t0)
            passes.append(samples)
            tally.check(state, outcome)
    tally.close()

    size = wl.window
    windows = [p[i:i + size] for p in passes for i in range(0, len(p) - size + 1, size)]
    latencies = [[wall for wall, _ in w] for w in windows]
    per_sample = tally.attempted / sum(len(p) for p in passes)  # graphs per timed item
    if size > 10:
        tails = [tail(lat) for lat in latencies]
        tail_value = statistics.median(t[0] for t in tails)
        _, tail_pct, beyond = tails[0]
    else:
        tail_value, tail_pct, beyond = tail([wall for lat in latencies for wall in lat])
    metrics = {
        "items_per_s": statistics.median(size * per_sample / sum(lat) for lat in latencies),
        "cpu_s": len(passes[0]) * statistics.median(sum(cpu for _, cpu in w) / size
                                                    for w in windows),
        "item_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in latencies),
        "item_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb(wl.in_child),
        "setup_s": statistics.median(setups),
    }
    detail = {
        "passes": len(walls), "pass_wall_s_unscaled": walls, "setup_samples_s": setups,
        "host_speed_p50": (statistics.median(s[1] for s in meter.samples)
                           if meter.samples else None),
        "windows": len(windows), "items_per_window": size,
        "item_tail": {"percentile": tail_pct, "samples_beyond": beyond,
                      "over": "each window" if size > 10 else "all items"},
        "error_rate": tally.failed / tally.attempted,
    }
    return tally, metrics, detail


def measure_traced(wl, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup_tracer = Tracer()
    t0 = time.perf_counter()
    with traced(setup_tracer):
        state = wl.setup(seed, setup_tracer.note)
    setup_layers = setup_tracer.summary(time.perf_counter() - t0)
    tally = Tally(wl, seed)
    plain, timed, passes = [], [], []
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start + statistics.median(plain)
                        + statistics.median(timed) <= seconds):
        t0 = time.perf_counter()
        outcome, _ = wl.run_in_process(state)
        plain.append(time.perf_counter() - t0)
        tally.check(state, outcome)
        tracer = Tracer()
        with traced(tracer):
            t0 = time.perf_counter()
            outcome, _ = wl.run_in_process(state, tracer.note)
            wall = time.perf_counter() - t0
        timed.append(wall)
        passes.append(tracer.summary(wall))
        tally.check(state, outcome)
    tally.close()

    # one setup plus the median pass
    layers = {}
    for key, value in setup_layers.items():
        pass_value = statistics.median_low(p[key] for p in passes)
        layers[key] = pass_value if key.endswith(".p50_ms") else value + pass_value
    orientations = layers["invariants.orientations"]
    hulls = layers["geodesic.convex_hull.calls"]
    layers["invariants.us_per_orientation"] = (
        1e6 * layers["invariants.orientable_numbers.s"] / orientations if orientations else 0.0)
    layers["verifier.hull_set_yield"] = layers["verifier.hull_sets_checked"] / hulls if hulls else 0.0
    untraced = statistics.median(plain)
    layers["trace.overhead_frac"] = (statistics.median(timed) - untraced) / untraced

    stem = f"{wl.name}-seed{seed}"
    setup_tracer.write(TRACE_DIR / f"{stem}-setup.spans.jsonl.gz")
    tracer.write(TRACE_DIR / f"{stem}-pass.spans.jsonl.gz")
    detail = {"passes": len(timed), "untraced_wall_s": plain, "traced_wall_s": timed,
              "traced_matches_untraced": len(tally.digests) == 1,
              "spans": str((TRACE_DIR / stem).relative_to(ROOT)) + "-*.spans.jsonl.gz"}
    return tally, layers, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> bool:
    import workloads  # imports the program, so only once src/ is on the path

    with open(HERE / "expected.json", encoding="utf-8") as fh:
        pins = json.load(fh)
    wl = workloads.WORKLOADS[name](ROOT, pins)
    tally, values, detail = (measure_traced if trace else measure)(wl, seed, seconds)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  pinned=wl.pinned(seed), machine=machine_facts())
    print(json.dumps({"detail": detail}))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return correct


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; run from the root of "
              f"an oriconvex checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one child per workload, so that no workload's peak RSS is another's
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode for name in names]
        return 1 if any(codes) else 0
    sys.path.insert(0, str(ROOT / "src"))
    return 0 if run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
