"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import derive_seed, norm_document  # noqa: E402
from spans import Span, Tracer, real_paths_ns, self_times_ns, tail_percentile  # noqa: E402
from speed import REF_NS, SpeedProbe, scaled_ns  # noqa: E402


def test_norm_document_is_deterministic_per_seed_and_differs_across_seeds():
    assert norm_document(7, 40, 100) == norm_document(7, 40, 100)
    assert norm_document(7, 40, 100) != norm_document(8, 40, 100)


def test_norm_document_has_the_requested_distinct_conflicts():
    doc = json.loads(norm_document(3, 30, 200))
    assert sorted(n["declared_at"] for n in doc["norms"]) == list(range(30))
    assert all(1 <= len(n["antecedents"]) <= 4 for n in doc["norms"])
    pairs = {frozenset(p) for p in doc["conflicts"]}
    assert len(doc["conflicts"]) == len(pairs) == 200
    assert all(len(p) == 2 for p in pairs)


def test_derive_seed_separates_streams():
    assert derive_seed(1, "sparse-3k") == derive_seed(1, "sparse-3k")
    streams = {derive_seed(1, "sparse-3k"), derive_seed(1, "dense-3k"), derive_seed(2, "sparse-3k")}
    assert len(streams) == 3


def test_workload_inputs_are_deterministic_per_seed():
    small = workloads.DocumentSpec("small", 40, 100, workloads.SPECS["sparse-3k"].runs)
    for make in (partial(workloads.Document, small), partial(workloads.make, "sweep16")):
        assert make(5).input_digest() == make(5).input_digest()
        assert make(5).input_digest() != make(6).input_digest()


def test_small_documents_pass_their_checks_traced_and_untraced():
    small = workloads.DocumentSpec("small", 60, 300, workloads.SPECS["sparse-3k"].runs)
    wl = workloads.Document(small, 1)
    tr = Tracer(record=True)
    clock = SpeedProbe()
    passes = [
        run.run_pass(wl, Tracer(record=False), clock, check=True),
        run.run_pass(wl, tr, clock, check=False),
    ]
    plain, traced = passes
    assert plain.problems == {}
    assert plain.digests == traced.digests
    assert plain.counts == traced.counts
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert list(run.layer_metrics(workloads, tr, passes, clock)) == [m["name"] for m in spec["per_layer"]]
    assert list(run.end_to_end_metrics(passes, clock, 1.0, 1.0)) == [m["name"] for m in spec["end_to_end"]]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_a_sweep_point_passes_its_checks_and_its_traced_replay_counts_match():
    wl = workloads.make("sweep16", 1)
    for key in (("oren-count", 30), ("score-sum", 12)):
        checked: dict = {}
        assert wl.check(key, wl.op(Tracer(record=False), key), checked) == []
        traced: dict = {}
        wl.tally(key, wl.op(Tracer(record=True), key), traced)
        assert traced == checked
        assert checked["graph.edges"] > 0


def _span(sid, name, parent, start, end, replay_of=None):
    return Span(sid, name, parent, 0, start, end, replay_of)


def test_self_times_on_a_hand_built_tree():
    # op: parse (with its graph build replayed after it), the algorithm
    # (with dsatur and ranking replayed after it), then the write.
    spans = [
        _span(0, "op", None, 0, 100),
        _span(1, "parse", 0, 0, 30),
        _span(2, "build_graph", 0, 30, 42, replay_of=1),
        _span(3, "algorithm", 0, 45, 80),
        _span(4, "dsatur", 0, 80, 88, replay_of=3),
        _span(5, "rank_colours", 0, 88, 93, replay_of=3),
        _span(6, "write", 0, 95, 100),
    ]
    assert self_times_ns(spans) == [5, 18, 12, 22, 8, 5, 5]
    assert real_paths_ns(spans) == {0: 100 - 12 - 8 - 5}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, "parent", None, 0, 100),
        _span(1, "a", 0, 10, 50),
        _span(2, "b", 0, 40, 70),
        _span(3, "c", 0, 90, 120),
    ]
    assert self_times_ns(spans)[0] == 100 - 60 - 10


def test_tracer_records_nesting_and_replays():
    tr = Tracer(record=True)
    tr.op = 3

    def outer():
        return tr.call("inner", lambda: 2) * 10

    assert tr.call("op", outer) == 20
    root = tr.last
    tr.call("again", lambda: None, replay_of=root)
    names = [(s.name, s.parent, s.op, s.replay_of) for s in tr.spans]
    assert names == [("op", None, 3, None), ("inner", 0, 3, None), ("again", None, 3, 0)]
    assert Tracer(record=False).call("op", outer) == 20


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(11))) is None
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(1, 21))) == (50.0, 10, 10)
    assert tail_percentile(list(range(1, 41))) == (75.0, 30, 10)
    assert tail_percentile(list(range(1, 101))) == (90.0, 90, 10)
    assert tail_percentile(list(range(1, 201))) == (95.0, 190, 10)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990, 10)
    assert tail_percentile(list(range(1, 10001))) == (99.9, 9990, 10)
    assert tail_percentile(list(range(1, 1000))) == (95.0, 950, 49)


def test_times_scale_by_the_reference_loop_around_them():
    assert scaled_ns(300, REF_NS, REF_NS) == 300
    assert scaled_ns(300, 2 * REF_NS, 4 * REF_NS) == 100
    clock = SpeedProbe(every_ns=10**12)
    clock.samples = [REF_NS, 3 * REF_NS, REF_NS]
    assert clock.scale(400, 0) == 200
    assert clock.scale(400, 1) == 200


def test_probes_come_between_operations_when_due():
    clock = SpeedProbe(every_ns=10**12)
    first = clock.due()
    assert clock.due() == first == 0
    assert clock.probe() == 1 and clock.due() == 1
    assert len(clock.samples) == 2 and min(clock.samples) > 0
    assert SpeedProbe(every_ns=0).due() == 0


def test_latency_is_each_operations_median_over_passes():
    samples = [("a", 10.0), ("b", 40.0), ("a", 30.0), ("b", 20.0), ("a", 11.0), ("c", 4.0)]
    typical = run.per_key_medians(samples)
    assert typical == {"a": 11.0, "b": 30.0, "c": 4.0}
    metrics = run.latency_metrics(typical)
    assert metrics["ops_per_s"] == (3 / (45 / 1e9), "1/s")
    assert metrics["op_p50_ms"] == (11.0 / 1e6, "ms")
