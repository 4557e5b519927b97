"""Benchmark harness for the resolution algorithms and baselines.

Reproduces the evaluation setup of the original conflict-graph experiments:
systems of 16 norms, a sweep over the number of randomly placed conflicts,
a fixed number of trials per conflict count, and per-trial metrics written
as CSV rows.

Seeding is paired: the graph for (conflict count, trial) is derived from
the master seed alone, so every algorithm in a run sees the same instance
and curves can be compared point by point. The only other consumer of
randomness, the random-drop baseline, draws from its own derived stream.

Each instance is coloured and ranked once, and that colouring and ranking
is shared by every colouring algorithm run on it, since all four start
from the same DSATUR colouring and policy ranking. A callable heuristic is
therefore called once per colour class per instance, not once per algorithm.

``BenchConfig`` checks a run's input once. Each instance's conflicts are
drawn by ``generate_random_conflicts`` and built into a graph by the
checked ``ConflictGraph`` constructor. The bench reads its metrics
straight from ``resolution._admission`` by norm position, so it builds no
``Resolution`` that it would only count; the policy label is worked out
once per run. A score metric ranks by a weak order's own map,
else by ``default_weak_ordering``, and reads every norm's rank before the
first instance, so UnknownNormId names the first norm left unranked. Each
norm is scored once per instance, and a set scores the sum over its
members.
"""
from __future__ import annotations

import csv
import hashlib
import io
import random
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

from .errors import EmptyInput, SchemaError, TooManyConflicts
from .graph import ConflictGraph, Norm, NormId, _require_count, _require_int, _shown
from .oracle import max_cardinality_admissible, random_drop
from .policies import Policy, WeakOrdering, _norm_score, _ranks, _require_heuristic, policy_label
from .resolution import ALGORITHMS, _admission, _prepare

# preferred is a maximum-cardinality stable extension (oracle.max_cardinality_admissible)
BASELINES = ("random-drop", "preferred")
CSV_HEADER = ("num_conflicts", "trial", "algorithm", "policy", "metric", "value", "seed")


class Metric(Enum):
    ADMITTED_COUNT = "admitted-count"
    SCORE_SUM = "score-sum"
    SCORE_AVG = "score-avg"


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark sweep; the defaults are the oren-count experiment's sweep."""
    policy: Policy
    metric: Metric
    n_norms: int = 16
    conflict_range: tuple[int, int] = (1, 240)
    trials_per_point: int = 10
    duplicate_directed_pairs: bool = True
    seed: int = 0
    algorithms: tuple[str, ...] = ("resolve",)

    def __post_init__(self) -> None:
        _require_heuristic(self.policy)
        if not isinstance(self.metric, Metric):
            raise SchemaError(f"metric must be a Metric, not {_shown(self.metric)}")
        if _require_int(self.n_norms, "n_norms") < 1:
            raise SchemaError(f"n_norms must be at least 1, got {_shown(self.n_norms)}")
        pair = self.conflict_range
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"conflict_range must be a pair of integers, not {_shown(pair)}")
        lo, hi = (_require_int(x, f"conflict_range[{k}]") for k, x in enumerate(pair))
        if not 0 <= lo <= hi:
            raise SchemaError(f"bad conflict_range {_shown(pair)}")
        object.__setattr__(self, "conflict_range", (lo, hi))  # a list would leave it unhashable
        trials = self.trials_per_point
        if _require_int(trials, "trials_per_point") < 1:
            raise SchemaError(f"trials_per_point must be at least 1, got {_shown(trials)}")
        _require_drawable(self.n_norms, hi, self.duplicate_directed_pairs, "conflict_range: ")
        # derive_seed hashes repr(seed), so it must print as digits: True is not 1
        shown = _shown(self.seed)
        if not isinstance(self.seed, int) or not shown.lstrip("-").isdigit():
            raise SchemaError(f"seed must be an integer that Python can print, not {shown}")
        names = self.algorithms
        if not isinstance(names, tuple) or not all(isinstance(a, str) for a in names):
            raise SchemaError(f"algorithms must be a tuple of names, not {_shown(names)}")
        unknown = [a for a in names if a not in ALGORITHMS and a not in BASELINES]
        if unknown:
            raise SchemaError(f"unknown algorithms: {unknown}")
        for k, a in enumerate(names):
            if a in names[:k]:  # its rows would be written twice
                raise SchemaError(f"algorithms: {a!r} is listed twice")


@dataclass(frozen=True)
class BenchRow:
    num_conflicts: int
    trial: int
    algorithm: str
    policy: str
    metric: str
    value: float
    seed: int


def max_conflicts(n_norms: int, duplicate_directed_pairs: bool) -> int:
    ordered = n_norms * (n_norms - 1)
    return ordered if duplicate_directed_pairs else ordered // 2


def _require_drawable(n_norms: int, n_conflicts: int, directed: bool, where: str) -> None:
    """Refuse a duplicate_directed_pairs that is not a bool, then more
    conflicts than n_norms norms admit; where prefixes the latter error."""
    if not isinstance(directed, bool):
        raise SchemaError("duplicate_directed_pairs: expected a bool")
    cap = max_conflicts(n_norms, directed)
    if n_conflicts > cap:
        raise TooManyConflicts(
            f"{where}{_shown(n_conflicts)} conflicts exceed the maximum of {_shown(cap)}"
        )


def _benchmark_ids(n: int, where: str) -> list[NormId]:
    _require_count(n, where)
    try:
        width = len(str(max(n - 1, 0)))
    except ValueError:  # over Python's limit of digits; a stand-in width would build n ids
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{where}: an integer of over {limit} digits") from None
    return [f"n{i:0{width}d}" for i in range(n)]


def benchmark_norms(n: int) -> list[Norm]:
    """The standard norm set: n0..n(n-1), zero-padded, declared in index
    order, with authority falling as the index rises."""
    return [
        Norm(id=v, declared_at=i, authority_rank=n - 1 - i)
        for i, v in enumerate(_benchmark_ids(n, "n"))
    ]


def default_weak_ordering(n: int) -> dict[NormId, int]:
    """Distinct ranks n-1..0 by norm index: the first norm is most preferred."""
    return {v: n - 1 - i for i, v in enumerate(_benchmark_ids(n, "n"))}


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit seed for a sub-stream of the master seed."""
    text = ":".join(map(repr, (master, *parts)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def generate_random_conflicts(
    n_norms: int,
    n_conflicts: int,
    duplicate_directed_pairs: bool,
    rng: random.Random,
) -> list[tuple[NormId, NormId]]:
    """Sample distinct conflict pairs uniformly, without self-loops.

    With duplicate_directed_pairs, (a, b) and (b, a) are distinct draws that
    both count toward n_conflicts yet collapse to one undirected edge at
    graph build; that replicates the 240-conflict ceiling of the original
    directed-graph methodology. Without it, unordered pairs are sampled.
    """
    _require_count(n_norms, "n_norms")
    _require_count(n_conflicts, "n_conflicts")
    _require_drawable(n_norms, n_conflicts, duplicate_directed_pairs, "")
    return rng.sample(_candidate_pairs(n_norms, duplicate_directed_pairs), n_conflicts)


@lru_cache(maxsize=4)  # bounded, since n norms give about n² pairs
def _candidate_pairs(
    n_norms: int, duplicate_directed_pairs: bool
) -> tuple[tuple[NormId, NormId], ...]:
    """Every candidate conflict between the ids of n benchmark norms, in
    itertools order, which fixes the pairs that a seeded sample draws."""
    pairs = permutations if duplicate_directed_pairs else combinations
    return tuple(pairs(_benchmark_ids(n_norms, "n_norms"), 2))


def _measure(
    algorithm: str,
    g: ConflictGraph,
    cfg: BenchConfig,
    label: str,
    point_seed: int,
    prepared: tuple | None,
    scores: list[int] | None,
) -> list[tuple[str, str, float]]:
    """Run one algorithm on one instance, given the run's policy label, the
    instance's shared ``_prepare`` result (None if no colouring algorithm
    runs) and, under a score metric, each norm's net score by position;
    returns (policy, metric, value) rows."""
    if algorithm == "random-drop":
        rng = random.Random(derive_seed(point_seed, "random-drop"))
        label, admitted = "none", list(map(g._position, random_drop(g, rng)))
    elif algorithm == "preferred":
        label, admitted = "none", list(map(g._position, max_cardinality_admissible(g)))
    else:
        entries, _ = _admission(algorithm, g, *prepared)
        if algorithm in ("curtail", "curtail-complete"):
            if cfg.metric is Metric.ADMITTED_COUNT:
                # Curtailing algorithms admit everything, so a raw count says
                # nothing; report how much survived uncurtailed instead.
                return [
                    (label, "curtailment_total", float(sum(len(w) for _, w in entries))),
                    (label, "uncurtailed_count", float(sum(not w for _, w in entries))),
                ]
            admitted = [i for i, w in entries if not w]
        else:
            admitted = [i for i, _ in entries]

    if cfg.metric is Metric.ADMITTED_COUNT:
        return [(label, "admitted_count", float(len(admitted)))]
    value = float(sum(map(scores.__getitem__, admitted)))
    if cfg.metric is Metric.SCORE_AVG:
        value = value / len(admitted) if admitted else 0.0
    return [(label, cfg.metric.value.replace("-", "_"), value)]


def run_benchmark(cfg: BenchConfig) -> list[BenchRow]:
    """Run the configured sweep; deterministic for a fixed config."""
    norms = benchmark_norms(cfg.n_norms)
    if isinstance(cfg.policy, Policy) and cfg.policy.ranks is not None:
        ranks: WeakOrdering = cfg.policy.ranks
    else:
        ranks = default_weak_ordering(cfg.n_norms)
    # each norm's rank under a score metric; UnknownNormId names the first unranked
    key = None if cfg.metric is Metric.ADMITTED_COUNT else _ranks(ranks, norms)
    label = policy_label(cfg.policy)
    any_colouring = any(a in ALGORITHMS for a in cfg.algorithms)
    n, directed = cfg.n_norms, cfg.duplicate_directed_pairs
    rows: list[BenchRow] = []
    lo, hi = cfg.conflict_range
    for num_conflicts in range(lo, hi + 1):
        for trial in range(cfg.trials_per_point):
            point_seed = derive_seed(cfg.seed, num_conflicts, trial)
            pairs = generate_random_conflicts(n, num_conflicts, directed, random.Random(point_seed))
            g = ConflictGraph(norms, pairs)
            prepared = _prepare(g, cfg.policy) if any_colouring else None
            scores = None if key is None else [
                _norm_score(g, key, i, True) for i in range(cfg.n_norms)
            ]
            for algorithm in sorted(cfg.algorithms):
                for row in _measure(algorithm, g, cfg, label, point_seed, prepared, scores):
                    rows.append(BenchRow(num_conflicts, trial, algorithm, *row, point_seed))
    return rows


def summarise(rows: Iterable[BenchRow]) -> dict[tuple[int, str, str, str], float]:
    """Mean value per (num_conflicts, algorithm, policy, metric) group."""
    sums: dict[tuple[int, str, str, str], list[float]] = {}
    for row in rows:
        group = (row.num_conflicts, row.algorithm, row.policy, row.metric)
        sums.setdefault(group, []).append(row.value)
    if not sums:
        raise EmptyInput("no benchmark rows to summarise")
    return {key: sum(values) / len(values) for key, values in sums.items()}


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    """Render rows as CSV: UTF-8 friendly, LF line endings, floats to six
    significant digits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (r.num_conflicts, r.trial, r.algorithm, r.policy, r.metric, format(r.value, ".6g"), r.seed)
        for r in rows
    )
    return out.getvalue()


_SCORE_SUM = BenchConfig(
    policy=Policy.weak_order(default_weak_ordering(BenchConfig.n_norms)),
    metric=Metric.SCORE_SUM,
    conflict_range=(1, 120),
    trials_per_point=250,
    duplicate_directed_pairs=False,
    algorithms=("resolve", "resolve-complete"),
)
# The canned experiments, by name; the CLI offers them in this order.
_PRESETS = {
    "oren-count": BenchConfig(
        policy=Policy.max_class(),
        metric=Metric.ADMITTED_COUNT,
        algorithms=("resolve", "resolve-complete", "random-drop", "preferred"),
    ),
    "score-sum": _SCORE_SUM,
    "score-avg": replace(_SCORE_SUM, metric=Metric.SCORE_AVG),
}


def preset_config(name: str, *, seed: int = 0, trials: int | None = None) -> BenchConfig:
    """The preset called name, with the given seed and, if given, trials per point."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise SchemaError(f"unknown preset {_shown(name)}")
    cfg = replace(_PRESETS[name], seed=seed)
    return cfg if trials is None else replace(cfg, trials_per_point=trials)
