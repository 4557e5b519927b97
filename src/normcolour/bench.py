"""Benchmark harness for the resolution algorithms and baselines.

Reproduces the evaluation setup of the original conflict-graph experiments:
systems of 16 norms, a sweep over the number of randomly placed conflicts,
a fixed number of trials per conflict count, and per-trial metrics written
as CSV rows.

Seeding is paired: the graph for (conflict count, trial) is derived from
the master seed alone, so every algorithm in a run sees the same instance
and curves can be compared point by point. The only other consumer of
randomness, the random-drop baseline, draws from its own derived stream.

Each instance is coloured once, by the DSATUR core ``colouring._dsatur``,
and its classes ranked once; every colouring algorithm run on it shares
both, since all four start from the same DSATUR colouring and policy
ranking. A callable heuristic is therefore called once per colour class
per instance, not once per algorithm.

``BenchConfig`` checks a run's input once. Each instance's conflicts are
drawn by ``generate_random_conflicts`` and read into each norm's neighbours
by position, as a set and as a Python-int bitmask (the bitboard idiom of
San Segundo, Rodríguez-Losada and Jiménez 2011). The metrics read only a
set size, a score sum, a curtailment total or an uncurtailed count, so the
bench runs the library's position-level cores on these:

* under a built-in ``Policy`` a norm scores
  ``popcount(nb & lower) - popcount(nb & higher)``, where nb is its
  neighbour mask and lower and higher are the masks of the norms whose
  policy key is below and above its own, built once per run with the keys'
  own ``<`` (gross scoring leaves higher empty);
* the algorithms admit through ``resolution._admission``; a norm is
  uncurtailed when its mask meets no earlier-admitted norm, and each
  conflict curtails its later-admitted end, so ``curtailment_total`` is
  the edge count;
* the baselines run ``oracle._max_admissible`` and ``oracle._random_drop``.

Only a callable heuristic needs a ``ConflictGraph`` and a ``Colouring``,
and its ranking feeds the same admission. A score metric ranks norms by a
weak order's own map, else by ``default_weak_ordering``, and reads every
norm's rank before the first instance, so UnknownNormId names the first
norm left unranked. Each norm is scored once per instance, and a set
scores the sum over its members. The norm set of each size is built once
and cached.
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
from typing import Iterable, Sequence

from .colouring import _by_position, _dsatur, dsatur
from .errors import EmptyInput, SchemaError, TooManyConflicts
from .graph import ConflictGraph, Norm, NormId, _require_count, _require_int, _shown
from .oracle import _max_admissible, _random_drop
from .policies import (
    Policy,
    PolicyKind,
    ScoreMode,
    WeakOrdering,
    _keys,
    _ranks,
    _require_heuristic,
    policy_label,
    rank_colours,
)
from .resolution import ALGORITHMS, _admission, _buckets

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
        _id_width(self.n_norms, "n_norms")
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
    """The most conflicts that n_norms norms admit: ordered pairs with
    duplicate_directed_pairs, else unordered ones."""
    _require_count(n_norms, "n_norms")
    if not isinstance(duplicate_directed_pairs, bool):
        raise SchemaError("duplicate_directed_pairs: expected a bool")
    ordered = n_norms * (n_norms - 1)
    return ordered if duplicate_directed_pairs else ordered // 2


def _require_drawable(n_norms: int, n_conflicts: int, directed: bool, where: str) -> None:
    """Refuse what ``max_conflicts`` refuses, then more conflicts than n_norms
    norms admit; where prefixes the latter error."""
    cap = max_conflicts(n_norms, directed)
    if n_conflicts > cap:
        raise TooManyConflicts(
            f"{where}{_shown(n_conflicts)} conflicts exceed the maximum of {_shown(cap)}"
        )


def _id_width(n: int, where: str) -> int:
    """The digits of the last of n benchmark ids; SchemaError naming where
    for an n too long to print, whose ids could not be built."""
    try:
        return len(str(max(n - 1, 0)))
    except ValueError:  # over Python's limit of digits; a stand-in width would build n ids
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{where}: an integer of over {limit} digits") from None


def _benchmark_ids(n: int, where: str) -> list[NormId]:
    width = _id_width(_require_count(n, where), where)
    return [f"n{i:0{width}d}" for i in range(n)]


@lru_cache(maxsize=4)  # bounded, since each set holds n norms
def _norm_set(n: int) -> tuple[tuple[Norm, ...], dict[NormId, int]]:
    """The n benchmark norms and each id's position. Callers check n first,
    since True would share 1's entry; the map is never handed out."""
    norms = tuple(
        Norm(id=v, declared_at=i, authority_rank=n - 1 - i)
        for i, v in enumerate(_benchmark_ids(n, "n"))
    )
    return norms, {norm.id: i for i, norm in enumerate(norms)}


def benchmark_norms(n: int) -> list[Norm]:
    """The standard norm set: n0..n(n-1), zero-padded, declared in index
    order, with authority falling as the index rises."""
    return list(_norm_set(_require_count(n, "n"))[0])


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


def _order_masks(key: Sequence) -> tuple[list[int], list[int]]:
    """For each norm, the mask of the norms whose key is below its own and
    the mask of those whose key is above it, under the keys' own ``<``, so
    that a partial order (lex specialis) leaves incomparable norms in neither."""
    lower = [sum(1 << j for j, kw in enumerate(key) if kw < kv) for kv in key]
    higher = [sum(1 << j for j, kw in enumerate(key) if kv < kw) for kv in key]
    return lower, higher


def _neighbours(
    pairs: list[tuple[NormId, NormId]], index: dict[NormId, int], bits: list[int]
) -> tuple[list[set[int]], list[int]]:
    """Each norm's neighbours, as a set of positions and as a mask, once each
    however often a pair was drawn."""
    adj: list[set[int]] = [set() for _ in bits]
    nb = [0] * len(bits)
    for a, b in pairs:
        i, j = index[a], index[b]
        adj[i].add(j)
        adj[j].add(i)
        nb[i] |= bits[j]
        nb[j] |= bits[i]
    return adj, nb


def _scores(nb: list[int], lower: list[int], higher: list[int]) -> list[int]:
    """Each norm's score against its neighbours nb: +1 per neighbour in its
    lower mask, -1 per neighbour in its higher mask."""
    return [(m & lo).bit_count() - (m & hi).bit_count() for m, lo, hi in zip(nb, lower, higher)]


def _best_first(buckets: list[list[int]], scores: list[int] | None) -> list[int]:
    """The classes best first, ties to the lower colour id, as
    ``rank_colours`` orders them: a class scores the sum of its members'
    scores, or its size when scores is None."""
    if scores is None:
        totals = list(map(len, buckets))
    else:
        totals = [sum(map(scores.__getitem__, members)) for members in buckets]
    # a stable sort, so reverse=True keeps equal totals in colour order
    return sorted(range(len(buckets)), key=totals.__getitem__, reverse=True)


def _measure(
    algorithm: str,
    cfg: BenchConfig,
    label: str,
    point_seed: int,
    adj: list[set[int]],
    nb: list[int],
    classes: tuple[list[list[int]], list[int]] | None,
    scores: list[int] | None,
) -> list[tuple[str, str, float]]:
    """Run one algorithm on one instance, given the run's policy label, the
    instance's neighbours as position sets and as masks, its classes and
    their ranking (None if no colouring algorithm runs) and, under a score
    metric, each norm's net score by position; returns (policy, metric,
    value) rows."""
    n = len(nb)
    if algorithm == "random-drop":
        rng = random.Random(derive_seed(point_seed, "random-drop"))
        # each conflict once, from its earlier norm: ConflictGraph.edges' order
        edges = [(i, j) for i, m in enumerate(nb) for j in range(i + 1, n) if m >> j & 1]
        label, admitted = "none", _random_drop(n, edges, rng)
    elif algorithm == "preferred":
        # zero-padded ids sort in position order, so the oracle's tie-break holds
        best = _max_admissible(nb)
        label, admitted = "none", [i for i in range(n) if best >> i & 1]
    else:
        # the uncurtailed norms: those with no neighbour admitted before them;
        # a class is independent, so its members never curtail each other
        admitted, seen = [], 0
        for members in _admission(algorithm, adj, *classes):
            for i in members:
                if not nb[i] & seen:
                    admitted.append(i)
                seen |= 1 << i
        if cfg.metric is Metric.ADMITTED_COUNT and algorithm.startswith("curtail"):
            # Curtailing algorithms admit everything, so a raw count says
            # nothing; report how much survived uncurtailed instead. Each
            # conflict curtails its later-admitted end once.
            edges = sum(m.bit_count() for m in nb) // 2
            return [
                (label, "curtailment_total", float(edges)),
                (label, "uncurtailed_count", float(len(admitted))),
            ]

    if cfg.metric is Metric.ADMITTED_COUNT:
        return [(label, "admitted_count", float(len(admitted)))]
    value = float(sum(map(scores.__getitem__, admitted)))
    if cfg.metric is Metric.SCORE_AVG:
        value = value / len(admitted) if admitted else 0.0
    return [(label, cfg.metric.value.replace("-", "_"), value)]


def run_benchmark(cfg: BenchConfig) -> list[BenchRow]:
    """Run the configured sweep; deterministic for a fixed config."""
    n, policy = cfg.n_norms, cfg.policy
    norms, index = _norm_set(n)
    built_in = isinstance(policy, Policy)
    algorithms = sorted(cfg.algorithms)
    colours = any(a in ALGORITHMS for a in algorithms)
    metric_masks = class_masks = None
    if cfg.metric is not Metric.ADMITTED_COUNT:
        if built_in and policy.ranks is not None:
            ranks: WeakOrdering = policy.ranks
        else:
            ranks = default_weak_ordering(n)
        # UnknownNormId names the first norm left unranked, before any instance
        metric_masks = _order_masks(_ranks(ranks, norms))
    if colours and built_in and policy.kind is not PolicyKind.MAX_CLASS:
        lower, higher = _order_masks(_keys(policy, norms))
        if policy.mode is ScoreMode.GROSS:
            higher = [0] * n  # gross scoring counts wins only
        class_masks = (lower, higher)
        if class_masks == metric_masks:
            class_masks = metric_masks  # so each norm is scored once
    label = policy_label(policy)
    bits = [1 << i for i in range(n)]
    rows: list[BenchRow] = []
    lo, hi = cfg.conflict_range
    for num_conflicts in range(lo, hi + 1):
        for trial in range(cfg.trials_per_point):
            point_seed = derive_seed(cfg.seed, num_conflicts, trial)
            pairs = generate_random_conflicts(
                n, num_conflicts, cfg.duplicate_directed_pairs, random.Random(point_seed)
            )
            adj, nb = _neighbours(pairs, index, bits)
            scores = None if metric_masks is None else _scores(nb, *metric_masks)
            classes = None
            if colours and built_in:
                if class_masks is None:  # max-class: a class scores its size
                    class_scores = None
                elif class_masks is metric_masks:
                    class_scores = scores
                else:
                    class_scores = _scores(nb, *class_masks)
                buckets = _buckets(_dsatur(adj)[0])
                classes = buckets, _best_first(buckets, class_scores)
            elif colours:
                g = ConflictGraph(norms, pairs)
                phi = dsatur(g)
                classes = _buckets(_by_position(g, phi)), rank_colours(g, phi, policy)
            for algorithm in algorithms:
                for row in _measure(algorithm, cfg, label, point_seed, adj, nb, classes, scores):
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
