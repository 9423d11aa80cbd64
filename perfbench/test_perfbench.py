"""Self-tests for the benchmark; run with ``python3 -m pytest perfbench -q``."""

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import oriconvex.geodesic  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_search_inputs_follow_the_seed():
    first = workloads.search_inputs(7)
    assert first == workloads.search_inputs(7)
    assert first != workloads.search_inputs(8)
    assert [g.n for g in first] == list(workloads.ORDERS) * workloads.PER_ORDER
    for g in first:
        assert oriconvex.graphs.is_connected(g)
        assert oriconvex.graphs.min_degree(g) >= 2
        assert g.m == workloads.EDGES_PER_VERTEX * g.n


def test_mutated_search_output_counts_as_failed():
    wl = workloads.SearchXfreeN14(ROOT, {})
    digraphs = wl.setup(3)[:3]
    outcomes, _ = wl.run(digraphs)
    assert wl.check(digraphs, outcomes, 3)[:2] == (3, 0)
    (g, gw), h, con = outcomes[1]
    outcomes[1] = ((g, gw[:-1]), h, con)
    assert wl.check(digraphs, outcomes, 3)[:2] == (3, 1)


def test_pinned_digest_catches_what_the_reference_check_cannot():
    wl = workloads.ConstructMd2N8(ROOT, {})
    corpus = wl.setup(0)[-20:]
    outcomes, _ = wl.run(corpus)
    _, failed, digests = wl.check(corpus, outcomes, 0)
    assert failed == 0
    pinned = workloads.ConstructMd2N8(ROOT, {wl.name: {"item_digests": digests}})
    assert pinned.check(corpus, outcomes, 0)[:2] == (20, 0)
    # another, still valid, geodetic witness: only the pin can tell
    d, con, ((g1, w1), *rest) = outcomes[4]
    outcomes[4] = (d, con, ((g1, tuple(reversed(w1))), *rest))
    assert wl.check(corpus, outcomes, 0)[1] == 0
    assert pinned.check(corpus, outcomes, 0)[:2] == (20, 1)


def test_mutated_cli_output_counts_as_failed():
    stdout = b'{"graph": "A"}\n{"graph": "B"}\n{"summary": {}}\n'
    pins = {"verify_n6": {
        "exit_code": 0, "graphs": 2,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "line_digests": "".join(workloads.item_digest(ln) for ln in stdout.splitlines()),
    }}
    wl = workloads.VerifyN6(ROOT, pins)
    assert wl.check(None, (0, stdout), 0)[:2] == (2, 0)
    assert wl.check(None, (0, stdout.replace(b"B", b"C")), 0)[:2] == (2, 1)
    assert wl.check(None, (1, stdout), 0)[:2] == (2, 2)
    assert wl.check(None, (0, stdout[:-17]), 0)[:2] == (2, 2)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0, 10)
    value, pct, beyond = run.tail([float(x) for x in range(1, 12)])
    assert (value, beyond) == (1.0, 10) and abs(pct - 100 / 11) < 1e-9
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tracer_reports_self_time_and_restores_the_program():
    original = oriconvex.geodesic.convex_hull
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert oriconvex.geodesic.convex_hull is not original
        oriconvex.verifier.verify_separation(oriconvex.graphs.parse_graph6("Bg"))  # P3
    assert oriconvex.geodesic.convex_hull is original
    summary = tracer.summary(wall=10.0)
    assert summary["graphs.parse_graph6.calls"] == 1
    assert summary["verifier.verify_separation.calls"] == 1
    assert summary["invariants.orientable_numbers.calls"] == 1
    assert summary["invariants.orientations"] == 2  # 2^2 orientations, halved by reversal
    assert summary["geodesic.convex_hull.calls"] == 7  # every nonempty subset of D2's vertices
    assert summary["verifier.hull_sets_checked"] == 1
    covered = summary["verifier.verify_separation.s"] + summary["graphs.parse_graph6.s"]
    total_self = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(total_self - covered) < 1e-9
    assert abs(summary["trace.residual_s"] - (10.0 - covered)) < 1e-9
    assert {span[tracing.ITEM] for span in tracer.spans} == {"Bg"}


def test_spans_name_the_graph_they_work_on():
    wl = workloads.SearchXfreeN14(ROOT, {})
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        digraphs = wl.setup(5, tracer.note)
        wl.run(digraphs[:2], tracer.note)
    gids = [gid for gid, _ in digraphs]
    names = [(span[tracing.NAME], span[tracing.ITEM]) for span in tracer.spans]
    assert names[:len(gids)] == [("orienters.extreme_free_orientation", gid) for gid in gids]
    assert [item for _, item in names[len(gids):]] == [gids[0]] * 3 + [gids[1]] * 3


def test_benchmark_lists_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    computed = set(tracing.Tracer().summary(0.0))
    computed |= {"invariants.us_per_orientation", "verifier.hull_set_yield", "trace.overhead_frac"}
    assert names == computed
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_expected_json_pins_exactly_the_pinned_search_seeds():
    pins = json.loads((HERE / "expected.json").read_text())
    wanted = {str(seed) for seed in range(workloads.PINNED_SEARCH_SEEDS)}
    assert set(pins["search_xfree_n14"]["seeds"]) == wanted
    wl = workloads.SearchXfreeN14(ROOT, pins)
    assert wl.pinned(0) and wl.pinned(workloads.PINNED_SEARCH_SEEDS - 1)
    assert not wl.pinned(workloads.PINNED_SEARCH_SEEDS)


def test_scale_uses_the_samples_inside_a_span_or_the_nearest():
    meter = calibrate.Speedometer()
    meter.samples = [(1.0, 2.0, 4.0), (2.0, 1.0, 1.0), (3.0, 0.5, 0.5)]
    spans = [(0.5, 2.5, 1.0, 1.0),  # holds the first two samples
             (2.9, 2.95, 1.0, 1.0),  # holds none; the third is nearest
             (0.1, 0.2, 1.0, 1.0)]  # before every sample
    assert meter.scale(spans) == [(1.5, 2.5), (0.5, 0.5), (2.0, 4.0)]
    assert calibrate.Speedometer().scale(spans) == [(1.0, 1.0)] * 3


def test_a_span_leaves_out_the_loops_run_inside_it():
    meter = calibrate.Speedometer()
    with meter.running():
        start = meter.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * calibrate.PERIOD_S:
            pass
        t0, t1, wall, _ = meter.stop(start)
    assert len(meter.samples) >= 2
    assert abs((t1 - t0) - wall - meter.spent_wall) < 1e-9
    ((scaled, _),) = meter.scale([(t0, t1, wall, 0.0)])
    assert scaled > 0
