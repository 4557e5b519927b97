"""Benchmark normcolour end to end and layer by layer.

    python3 perfbench/run.py --workload sweep16 --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a source checkout: it imports normcolour from
the checkout's ``src`` and nowhere else. ``--workload all``, the default,
runs every workload one after another, each in a fresh single-threaded
process, so that one workload's set-up and memory never count for another.

A run sets up several times (generate the seeded inputs, run one untimed
warm-up operation), then repeats passes over the workload's operations
until ``--seconds`` have gone, always finishing the pass it is in. Every
time is scaled to a reference speed of the machine, measured by a fixed
loop timed around it (see ``speed.py``); the raw wall times are printed on
comment lines. An operation's latency in a run is the median of its
scaled times over the run's passes. Outputs are checked outside the timed
region: on the first pass every output is checked with the oracle, and
every later pass must reproduce the first pass's SHA-256 digests. Seeds
listed in ``digests.json`` must also match their pinned workload digest.

``--trace 1`` alternates untraced and traced passes. It reports per-layer
busy and self times (scaled, like every time) and exact counts, all per
pass, from the traced passes, and the tracing overhead against the
untraced ones; it requires both to give the same digests and counts.
Spans are written to ``.perfbench/trace-<workload>-seed<n>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any

from spans import Tracer, real_paths_ns, self_times_ns, tail_percentile
from speed import REF_NS, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("sweep16", "sparse-3k", "dense-3k")
MODULES = ("normcolour", "normcolour.bench", "normcolour.documents", "normcolour.oracle")
SETUP_REPEATS = 5

Metrics = dict[str, tuple[float, str]]  # name -> (value, unit)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    traced: bool
    timed: list[tuple[Any, int, int]] = field(default_factory=list)  # key, wall ns, probe before
    op_probes: dict[int, int] = field(default_factory=dict)  # tracer op id -> probe before
    digests: dict[Any, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    problems: dict[Any, list[str]] = field(default_factory=dict)
    texts: dict[Any, str] = field(default_factory=dict)


def run_pass(wl: Any, tr: Tracer, clock: SpeedProbe, check: bool) -> Pass:
    """One pass over the workload's operations; only ``op`` is timed."""
    p = Pass(tr.record)
    for key in wl.keys:
        tr.op += 1
        before = p.op_probes[tr.op] = clock.due()
        start = perf_counter_ns()
        try:
            out = tr.call("op", wl.op, tr, key)
        except Exception:
            p.problems[key] = [traceback.format_exc(limit=4)]
            continue
        p.timed.append((key, perf_counter_ns() - start, before))
        text = wl.text_of(out)
        p.digests[key] = sha256(text)
        wl.tally(key, out, p.counts)
        if check:
            p.texts[key] = text
            try:
                found = wl.check(key, out, p.counts)
            except Exception:
                found = [traceback.format_exc(limit=4)]
            if found:
                p.problems[key] = found
    clock.probe()
    return p


def layer_metrics(workloads: Any, tr: Tracer, passes: list[Pass], clock: SpeedProbe) -> Metrics:
    """Per-layer metrics from the traced passes, per pass, in scaled time."""
    traced = [p for p in passes if p.traced]
    n = len(traced)
    factor = {op: clock.scale(1.0, i) for p in traced for op, i in p.op_probes.items()}
    busy: dict[str, float] = {}
    for s in tr.spans:
        busy[s.name] = busy.get(s.name, 0) + s.duration_ns * factor[s.op]
    metrics = {
        f"{name}.busy_s": (busy.get(name, 0) / 1e9 / n, "s") for name in workloads.BUSY_LAYERS
    }
    own = self_times_ns(tr.spans)
    for metric, prefix in workloads.SELF_METRICS.items():
        total = sum(t * factor[s.op] for s, t in zip(tr.spans, own) if s.name.startswith(prefix))
        metrics[metric] = (total / 1e9 / n, "s")
    for name, unit in workloads.COUNTS.items():
        metrics[name] = (traced[0].counts.get(name, 0), unit)
    untraced_ns = sum(clock.scale(ns, i) for p in passes if not p.traced for _, ns, i in p.timed)
    traced_ns = sum(ns * factor[op] for op, ns in real_paths_ns(tr.spans).items())
    metrics["trace.overhead_pct"] = ((traced_ns - untraced_ns) / untraced_ns * 100, "%")
    metrics["trace.spans"] = (len(tr.spans) / n, "count")
    return metrics


def per_key_medians(samples: list[tuple[Any, float]]) -> dict[Any, float]:
    """Each operation's median time over the passes of a run."""
    by_key: dict[Any, list[float]] = {}
    for key, ns in samples:
        by_key.setdefault(key, []).append(ns)
    return {key: statistics.median(times) for key, times in by_key.items()}


def latency_metrics(typical_ns: dict[Any, float]) -> Metrics:
    """Throughput and median latency from each operation's typical time."""
    times = list(typical_ns.values())
    return {
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
    }


def end_to_end_metrics(
    passes: list[Pass], clock: SpeedProbe, setup_s: float, peak_rss_mb: float
) -> Metrics:
    scaled = [(key, clock.scale(ns, i)) for p in passes if not p.traced for key, ns, i in p.timed]
    return {
        **latency_metrics(per_key_medians(scaled)),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def import_normcolour() -> int | None:
    """Import normcolour from this checkout; its time in ns, or None if it cannot."""
    if not (SRC / "normcolour" / "__init__.py").is_file():
        print(f"error: no normcolour sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    start = perf_counter_ns()
    for module in MODULES:
        importlib.import_module(module)
    elapsed_ns = perf_counter_ns() - start
    if SRC not in Path(sys.modules["normcolour"].__file__).resolve().parents:
        print(f"error: normcolour was not imported from {SRC}", file=sys.stderr)
        return None
    return elapsed_ns


def verify(wl: Any, passes: list[Pass], digest: str, pinned: str | None) -> dict[Any, list[str]]:
    """Problems found per operation key, plus run-wide ones under ``None``."""
    first = passes[0]
    problems = {key: list(found) for key, found in first.problems.items()}
    if len(first.texts) == len(wl.keys):
        try:
            found_per_key = wl.final_check(first.texts)
        except Exception:
            found_per_key = {key: [traceback.format_exc(limit=4)] for key in wl.keys}
        for key, found in found_per_key.items():
            problems.setdefault(key, []).extend(found)
    run_wide = []
    if pinned is not None and pinned != digest:
        run_wide.append(f"workload digest {digest} differs from the pinned {pinned}")
    for i, p in enumerate(passes):
        for key in wl.keys:
            if key in p.digests and p.digests[key] != first.digests.get(key):
                problems.setdefault(key, []).append(f"pass {i} output differs from the first pass")
        if p.traced and p.counts != first.counts:
            run_wide.append(f"pass {i}: traced counts {p.counts} differ from {first.counts}")
    if run_wide:
        problems[None] = run_wide
    return problems


def run_workload(args: argparse.Namespace) -> int:
    clock = SpeedProbe()
    before = clock.probe()
    import_ns = import_normcolour()
    if import_ns is None:
        return 2
    clock.probe()
    import workloads  # imports normcolour, so only after that import was timed

    raw_reps, probe_reps = [], []
    input_digests = set()
    for _ in range(SETUP_REPEATS):
        wl = None  # drop the previous inputs before making new ones
        probe_reps.append(clock.probe())
        start = perf_counter_ns()
        wl = workloads.make(args.workload, args.seed)
        wl.op(Tracer(record=False), wl.keys[0])
        raw_reps.append(perf_counter_ns() - start)
        input_digests.add(wl.input_digest())
        clock.probe()
    reps = [clock.scale(ns, i) for ns, i in zip(raw_reps, probe_reps)]
    setup_s = (clock.scale(import_ns, before) + statistics.median(reps)) / 1e9
    raw_setup_s = (import_ns + statistics.median(raw_reps)) / 1e9

    untraced, traced = Tracer(record=False), Tracer(record=True)
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(run_pass(wl, untraced, clock, check=not passes))
        if args.trace:
            passes.append(run_pass(wl, traced, clock, check=False))
    measured_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = sha256("".join(passes[0].digests.get(key, "-") for key in wl.keys))
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pinned = pins.get(args.workload, {}).get(str(args.seed))
    problems = verify(wl, passes, digest, pinned)
    if len(input_digests) != 1:
        problems.setdefault(None, []).append("set-ups generated different inputs from one seed")
    attempted = len(passes) * len(wl.keys)
    failed = attempted if None in problems else sum(
        key in problems or key in p.problems for p in passes for key in wl.keys
    )

    untraced_passes = [p for p in passes if not p.traced]
    traced_note = f"+{len(passes) - len(untraced_passes)} traced" if args.trace else ""
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}"
        f" passes={len(untraced_passes)}{traced_note} ops/pass={len(wl.keys)}"
        f" measured_s={measured_s:.1f}"
    )
    print(f"# digest {digest} ({'no pin for this seed' if pinned is None else 'pinned'})")
    print(
        f"# setup: import {clock.scale(import_ns, before) / 1e9:.4f} s + median of"
        f" {[round(r / 1e9, 4) for r in reps]} s (raw wall time {raw_setup_s:.4f} s)"
    )
    probes = clock.samples
    print(
        f"# speed: reference loop median {statistics.median(probes) / 1e6:.3f} ms,"
        f" fastest {min(probes) / 1e6:.3f} ms, over {len(probes)} probes;"
        f" times are scaled to {REF_NS / 1e6:g} ms"
    )
    if args.trace:
        metrics = layer_metrics(workloads, traced, passes, clock)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced.write_jsonl(trace_path)
        print(f"# spans: {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(passes, clock, setup_s, peak_rss_mb)
        raw = latency_metrics(per_key_medians([t[:2] for p in untraced_passes for t in p.timed]))
        print(
            "# raw wall time: "
            + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items())
        )
        lat = [clock.scale(ns, i) / 1e6 for p in untraced_passes for _, ns, i in p.timed]
        tail = tail_percentile(lat)
        if tail is None:
            print(f"# op_tail_ms: not reported, {len(lat)} operations are too few for a tail")
        else:
            pct, value, beyond = tail
            print(f"# op_tail_ms: p{pct:g} = {value:.6g} ms ({len(lat)} ops, {beyond} beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40} {value:>16.6g} {unit}")
    for key, found in list(problems.items())[:5]:
        where = "the run" if key is None else key
        print(f"check failed for {where}: {found[0]}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    total: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
