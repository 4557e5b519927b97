"""The benchmark's workloads, written against public names of normcolour only.

Each workload is a fixed, seeded list of operation keys. ``op`` is the timed
operation; when its tracer records, it also replays the inner layer calls
that the public call hides. ``check`` and ``final_check`` verify outputs
outside the timed region; ``tally`` adds the exact work counts an output
carries.

* ``sweep16``: the paper's experiment, thousands of 16-norm graphs, so
  per-call overhead, policy scoring, instance generation and the oracle
  baselines carry the weight. One operation is one conflict-count point.
* ``sparse-3k``: a 3,000-norm document with 15,000 conflicts under
  lex-posterior net, resolved by every algorithm. DSATUR's selection
  scan dominates; policy scoring is a few per cent.
* ``dense-3k``: one 3,000-norm document with 150,000 conflicts, under
  lex-specialis net and lex-superior gross, with resolve (small output)
  and curtail-complete (large output). Parsing, graph building, policy
  scoring and completion over 26 colours carry the weight.

The large workloads do in-process what ``normcolour resolve`` does:
parse the document, run the algorithm, write the resolution.
"""
from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Any

from normcolour import (
    ALGORITHMS,
    Policy,
    ScoreMode,
    build_graph,
    dsatur,
    is_valid_colouring,
    policy_label,
    rank_colours,
    score_admitted_set,
)
from normcolour.bench import (
    benchmark_norms,
    derive_seed as point_seed_of,
    generate_random_conflicts,
    preset_config,
    rows_to_csv,
    run_benchmark,
)
from normcolour.documents import parse_norm_document, read_resolution, write_resolution
from normcolour.oracle import (
    is_complete_extension,
    is_conflict_free,
    max_cardinality_admissible,
    random_drop,
)

from inputs import derive_seed, norm_document
from spans import Tracer

# One tenth of each preset's trials per point: 240 + 120 points per pass.
SWEEP_PRESETS = (("oren-count", 1), ("score-sum", 25))

SweepOutput = tuple[list, str, dict[str, int]]  # rows, their CSV, counts of a traced replay
DocumentOutput = tuple[Any, Any, str]  # graph, resolution, resolution document

# Per-layer metrics, in BENCHMARK.json order. Busy and self times are
# seconds per pass over the workload's operations; counts are per pass.
BUSY_LAYERS = (
    "colouring.dsatur",
    "policies.rank_colours",
    "policies.score_admitted_set",
    "resolution.resolve",
    "resolution.resolve-complete",
    "resolution.curtail",
    "resolution.curtail-complete",
    "documents.parse_norm_document",
    "documents.write_resolution",
    "graph.build_graph",
    "bench.run_benchmark",
    "bench.generate_random_conflicts",
    "bench.rows_to_csv",
    "oracle.random_drop",
    "oracle.max_cardinality_admissible",
)
# Self-time metric -> the spans whose self time it sums (by name prefix).
SELF_METRICS = {
    "resolution.admit.self_s": "resolution.",
    "documents.parse_norm_document.self_s": "documents.parse_norm_document",
    "bench.overhead_s": "bench.run_benchmark",
}
COUNTS = {
    "colouring.colours": "count",
    "resolution.entries": "count",
    "resolution.curtailments": "count",
    "documents.bytes_in": "B",
    "documents.bytes_out": "B",
    "graph.edges": "count",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _add(counts: dict[str, int], name: str, n: int) -> None:
    counts[name] = counts.get(name, 0) + n


def _tally_resolution(counts: dict[str, int], res: Any) -> None:
    _add(counts, "colouring.colours", res.colouring.num_colours)
    _add(counts, "resolution.entries", len(res.entries))
    _add(counts, "resolution.curtailments", res.total_curtailments)


def _replay_admission(tr: Tracer, g: Any, policy: Policy) -> None:
    """Replay the colouring and ranking hidden in the algorithm call just traced."""
    inner = tr.last
    phi = tr.call("colouring.dsatur", dsatur, g, replay_of=inner)
    tr.call("policies.rank_colours", rank_colours, g, phi, policy, replay_of=inner)


def _resolution_problems(g: Any, res: Any, algorithm: str) -> list[str]:
    """Oracle invariants every algorithm's result must satisfy."""
    problems = []
    if not is_valid_colouring(g, res.colouring):
        problems.append(f"{algorithm}: colouring is not proper")
    if algorithm.startswith("resolve"):
        if not is_conflict_free(g, res.admitted):
            problems.append(f"{algorithm}: admitted set is not conflict-free")
        if algorithm == "resolve-complete" and not is_complete_extension(g, res.admitted):
            problems.append(f"{algorithm}: admitted set is not a complete extension")
        return problems
    position = {e.norm: i for i, e in enumerate(res.entries)}
    if len(position) != len(res.entries) or set(position) != set(g.ids):
        problems.append(f"{algorithm}: does not admit every norm exactly once")
        return problems
    for i, e in enumerate(res.entries):
        earlier = sorted((w for w in g.neighbours(e.norm) if position[w] < i), key=position.get)
        if e.curtailed_wrt != tuple(earlier):
            problems.append(
                f"{algorithm}: {e.norm} is not curtailed by exactly its earlier-admitted neighbours"
            )
            break
    return problems


class Sweep16:
    """The oren-count and score-sum presets, one operation per conflict count."""

    name = "sweep16"

    def __init__(self, seed: int) -> None:
        self.presets = {
            name: preset_config(name, seed=seed, trials=trials) for name, trials in SWEEP_PRESETS
        }
        self.keys = [
            (name, k)
            for name, cfg in self.presets.items()
            for k in range(cfg.conflict_range[0], cfg.conflict_range[1] + 1)
        ]
        self.configs = {
            key: dataclasses.replace(self.presets[key[0]], conflict_range=(key[1], key[1]))
            for key in self.keys
        }

    def input_digest(self) -> str:
        return sha256(repr([self.configs[key] for key in self.keys]))

    def op(self, tr: Tracer, key: tuple[str, int]) -> SweepOutput:
        rows = tr.call("bench.run_benchmark", run_benchmark, self.configs[key])
        counts: dict[str, int] = {}
        if tr.record:
            self.replay(tr, key, counts, replay_of=tr.last)
        return rows, tr.call("bench.rows_to_csv", rows_to_csv, rows), counts

    def replay(
        self, tr: Tracer, key: tuple[str, int], counts: dict[str, int], replay_of: int | None = None
    ) -> list:
        """Redo, one public call at a time, what ``run_benchmark`` does for
        one point. Returns per trial the graph, each algorithm's result and
        each score-sum value; adds the exact work counts to ``counts``."""
        cfg = self.configs[key]
        k = key[1]
        norms = benchmark_norms(cfg.n_norms)
        score_sum = cfg.metric.value == "score-sum"
        trials = []
        for trial in range(cfg.trials_per_point):
            point_seed = point_seed_of(cfg.seed, k, trial)
            pairs = tr.call(
                "bench.generate_random_conflicts",
                generate_random_conflicts,
                cfg.n_norms,
                k,
                cfg.duplicate_directed_pairs,
                random.Random(point_seed),
                replay_of=replay_of,
            )
            g = tr.call("graph.build_graph", build_graph, norms, pairs, replay_of=replay_of)
            _add(counts, "graph.edges", len(g.edges))
            found: dict[str, Any] = {}
            scores: dict[str, int] = {}
            for a in cfg.algorithms:
                if a == "random-drop":
                    rng = random.Random(point_seed_of(point_seed, "random-drop"))
                    found[a] = tr.call(
                        "oracle.random_drop", random_drop, g, rng, replay_of=replay_of
                    )
                    continue
                if a == "preferred":
                    found[a] = tr.call(
                        "oracle.max_cardinality_admissible", max_cardinality_admissible, g,
                        replay_of=replay_of,
                    )
                    continue
                res = found[a] = tr.call(
                    f"resolution.{a}", ALGORITHMS[a], g, cfg.policy, replay_of=replay_of
                )
                if tr.record:
                    _replay_admission(tr, g, cfg.policy)
                _tally_resolution(counts, res)
                if score_sum:
                    scores[a] = tr.call(
                        "policies.score_admitted_set", score_admitted_set, g, res.admitted,
                        cfg.policy.ranks, replay_of=replay_of,
                    )
            trials.append((g, found, scores))
        return trials

    @staticmethod
    def text_of(output: SweepOutput) -> str:
        return output[1]

    def tally(self, key: tuple[str, int], output: SweepOutput, counts: dict[str, int]) -> None:
        """A point's rows carry no counts; a traced operation's replay does."""
        for name, n in output[2].items():
            _add(counts, name, n)

    def check(self, key: tuple[str, int], output: SweepOutput, counts: dict[str, int]) -> list[str]:
        """Regenerate the point's instances, check every result with the
        oracle, and check that the point's rows report those results."""
        trials = self.replay(Tracer(record=False), key, counts)
        rows = output[0]
        problems = []
        for trial, (g, found, scores) in enumerate(trials):
            reported = {(r.algorithm, r.metric): r.value for r in rows if r.trial == trial}
            for a, result in found.items():
                if isinstance(result, frozenset):
                    admitted, value = result, float(len(result))
                    if not is_conflict_free(g, admitted):
                        problems.append(f"trial {trial} {a}: not conflict-free")
                else:
                    admitted, value = frozenset(result.admitted), float(len(result.entries))
                    problems += [f"trial {trial} {p}" for p in _resolution_problems(g, result, a)]
                if "preferred" in found and len(admitted) > len(found["preferred"]):
                    problems.append(f"trial {trial} {a}: larger than a maximum admissible set")
                metric = "score_sum" if a in scores else "admitted_count"
                if a in scores:
                    value = float(scores[a])
                if reported.get((a, metric)) != value:
                    problems.append(f"trial {trial} {a}: row {metric} is not the replayed {value}")
        return problems

    def final_check(self, texts: dict[Any, str]) -> dict[Any, list[str]]:
        """Per preset, the per-point CSVs joined must equal the CSV of one
        ``run_benchmark`` over the whole preset."""
        problems: dict[Any, list[str]] = {}
        for name, cfg in self.presets.items():
            keys = [key for key in self.keys if key[0] == name]
            header, _ = texts[keys[0]].split("\n", 1)
            joined = header + "\n" + "".join(texts[key].split("\n", 1)[1] for key in keys)
            if joined != rows_to_csv(run_benchmark(cfg)):
                for key in keys:
                    problems[key] = [f"{name}: per-point CSVs differ from the whole-preset CSV"]
        return problems


@dataclasses.dataclass(frozen=True)
class DocumentSpec:
    name: str
    n_norms: int
    n_conflicts: int
    runs: tuple[tuple[Policy, str], ...]


SPECS = {
    spec.name: spec
    for spec in (
        DocumentSpec(
            "sparse-3k", 3000, 15_000, tuple((Policy.lex_posterior(), a) for a in ALGORITHMS)
        ),
        DocumentSpec(
            "dense-3k",
            3000,
            150_000,
            tuple(
                (p, a)
                for p in (Policy.lex_specialis(), Policy.lex_superior(ScoreMode.GROSS))
                for a in ("resolve", "curtail-complete")
            ),
        ),
    )
}


class Document:
    """One large norm document, resolved under each of ``runs`` as the CLI would."""

    def __init__(self, spec: DocumentSpec, seed: int) -> None:
        self.spec = spec
        self.name = spec.name
        self.text = norm_document(derive_seed(seed, spec.name), spec.n_norms, spec.n_conflicts)
        self.size = len(self.text.encode())
        self.runs = {f"{policy_label(p)}/{a}": (p, a) for p, a in spec.runs}
        self.keys = list(self.runs)

    def input_digest(self) -> str:
        return sha256(self.text)

    def op(self, tr: Tracer, key: str) -> DocumentOutput:
        policy, algorithm = self.runs[key]
        g = tr.call("documents.parse_norm_document", parse_norm_document, self.text)
        if tr.record:
            tr.call("graph.build_graph", build_graph, g.norms, g.edges, replay_of=tr.last)
        res = tr.call(f"resolution.{algorithm}", ALGORITHMS[algorithm], g, policy)
        if tr.record:
            _replay_admission(tr, g, policy)
        return g, res, tr.call("documents.write_resolution", write_resolution, res)

    @staticmethod
    def text_of(output: DocumentOutput) -> str:
        return output[2]

    def tally(self, key: str, output: DocumentOutput, counts: dict[str, int]) -> None:
        g, res, out = output
        _add(counts, "graph.edges", len(g.edges))
        _tally_resolution(counts, res)
        _add(counts, "documents.bytes_in", self.size)
        _add(counts, "documents.bytes_out", len(out.encode()))

    def check(self, key: str, output: DocumentOutput, counts: dict[str, int]) -> list[str]:
        g, res, out = output
        policy, algorithm = self.runs[key]
        problems = []
        if len(g) != self.spec.n_norms or len(g.edges) != self.spec.n_conflicts:
            problems.append(f"parsed {len(g)} norms and {len(g.edges)} conflicts")
        doc = read_resolution(out)
        expected = (algorithm, policy_label(policy), res.entries)
        if (doc.algorithm, doc.policy, doc.entries) != expected:
            problems.append("the written resolution does not read back as the result")
        return problems + _resolution_problems(g, res, algorithm)

    def final_check(self, texts: dict[Any, str]) -> dict[Any, list[str]]:
        return {}


def make(name: str, seed: int) -> Sweep16 | Document:
    if name == Sweep16.name:
        return Sweep16(seed)
    return Document(SPECS[name], seed)

