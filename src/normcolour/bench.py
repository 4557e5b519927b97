"""Benchmark harness for the resolution algorithms and baselines.

Reproduces the evaluation setup of the original conflict-graph experiments:
systems of 16 norms, a sweep over the number of randomly placed conflicts,
a fixed number of trials per conflict count, and per-trial metrics written
as CSV rows.

Seeding is paired: the graph for (conflict count, trial) is derived from
the master seed alone, so every algorithm in a run sees the same instance
and curves can be compared point by point. The only other consumer of
randomness, the random-drop baseline, draws from its own derived stream.
``run_benchmark`` reseeds one generator for each stream of each instance.
Both draws read the generator through ``getrandbits`` alone: the
instance by ``_sample``, CPython's ``Random.sample`` written out, and
random drop by ``oracle._below``, its ``randrange``. Python promises to
keep ``getrandbits``' sequence for a seed, but not ``sample``'s or
``randrange``'s algorithm, so the bench owns the draws its outputs rest on.

Each instance is drawn as norm positions and read into neighbour lists and
Python-int bitmasks (the bitboard idiom of San Segundo, Rodríguez-Losada
and Jiménez 2011), on which the bench runs the library's position-level
cores and builds no ``ConflictGraph``. So ``BenchConfig`` takes a built-in
``Policy`` only, whose scores ``policies._score_masks`` gives as masks.
All four colouring algorithms start from the same classes and ranking, so
each instance is coloured and ranked once. ``_admitted`` gives the
positions each algorithm admits on an instance, and ``run_benchmark``
turns them into rows.

A score metric scores norms as a weak order does, by the policy's own rank
map, else by ``default_weak_ordering``. When the ranking's masks equal the
metric's, each norm is scored once per instance.
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
from math import ceil, log
from typing import Iterable, Sequence

from .errors import EmptyInput, SchemaError, TooManyConflicts
from .graph import Norm, NormId, _require_count, _require_int, _shown
from .oracle import _max_admissible, _random_drop, _require_rng
from .policies import Policy, _score_masks, policy_label
from .resolution import ALGORITHMS, _admission, _classes

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
        if not isinstance(self.policy, Policy):
            raise SchemaError(f"policy must be a Policy, not {_shown(self.policy)}")
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
def _norm_set(n: int) -> tuple[Norm, ...]:
    """The n benchmark norms. Callers check n first, since True would share
    1's entry."""
    return tuple(
        Norm(id=v, declared_at=i, authority_rank=n - 1 - i)
        for i, v in enumerate(_benchmark_ids(n, "n"))
    )


def benchmark_norms(n: int) -> list[Norm]:
    """The standard norm set: n0..n(n-1), zero-padded, declared in index
    order, with authority falling as the index rises."""
    return list(_norm_set(_require_count(n, "n")))


def default_weak_ordering(n: int) -> dict[NormId, int]:
    """Distinct ranks n-1..0 by norm index: the first norm is most preferred."""
    return {v: n - 1 - i for i, v in enumerate(_benchmark_ids(n, "n"))}


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit seed for a sub-stream of the master seed."""
    try:
        text = ":".join(map(repr, (master, *parts)))
    except ValueError:  # an int over Python's limit of digits has no repr to hash
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"derive_seed: an integer of over {limit} digits") from None
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

    rng is read through ``getrandbits`` alone, so a subclass of
    ``random.Random`` that overrides ``random()`` but not ``getrandbits()``
    draws the same pairs as the plain generator of the same state.
    """
    _require_count(n_norms, "n_norms")
    _require_count(n_conflicts, "n_conflicts")
    _require_drawable(n_norms, n_conflicts, duplicate_directed_pairs, "")
    ids = _benchmark_ids(n_norms, "n_norms")  # refuses an n_norms too long to print, before _draw
    pairs = _draw(n_norms, n_conflicts, duplicate_directed_pairs, _require_rng(rng))
    return [(ids[i], ids[j]) for i, j in pairs]


def _draw(n: int, k: int, directed: bool, rng: random.Random) -> list[tuple[int, int]]:
    """``generate_random_conflicts`` on norm positions, for checked arguments."""
    return _sample(rng, _candidate_pairs(n, directed), k)


def _sample(rng: random.Random, population: Sequence, k: int) -> list:
    """``rng.sample(population, k)`` for 0 <= k <= len(population), as
    CPython 3.10-3.13 draws it, through ``rng.getrandbits`` alone: a partial
    Fisher-Yates shuffle of a pool when that list is smaller than a set of
    k, else rejection against the set. Each position is drawn as
    ``_randbelow`` draws it: bits of the bound's width until under it."""
    n = len(population)
    bits = rng.getrandbits
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    result = []
    if n <= setsize:
        pool = list(population)  # the unselected, at pool[:m]
        for m in range(n, n - k, -1):
            w = m.bit_length()
            j = bits(w)
            while j >= m:
                j = bits(w)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    w = n.bit_length()
    selected: set[int] = set()
    for _ in range(k):
        j = bits(w)
        while j >= n or j in selected:
            j = bits(w)
        selected.add(j)
        result.append(population[j])
    return result


@lru_cache(maxsize=4)  # bounded, since n norms give about n² pairs
def _candidate_pairs(n: int, directed: bool) -> tuple[tuple[int, int], ...]:
    """Every candidate conflict between n positions, in itertools order: a
    seeded sample picks by the population's length and order alone."""
    return tuple((permutations if directed else combinations)(range(n), 2))


def _neighbours(pairs: list[tuple[int, int]], bits: list[int]) -> tuple[list[list[int]], list[int]]:
    """Each norm's neighbours, as a list of positions and as a mask, once each
    however often a pair was drawn: the mask tells a repeat."""
    adj: list[list[int]] = [[] for _ in bits]
    nb = [0] * len(bits)
    for i, j in pairs:
        if not nb[i] & bits[j]:
            adj[i].append(j)
            adj[j].append(i)
            nb[i] |= bits[j]
            nb[j] |= bits[i]
    return adj, nb


def _scores(nb: list[int], masks: tuple[list[int], list[int]] | None) -> list[int]:
    """Each norm's score against its neighbours nb, given the mask pair of
    ``policies._score_masks``; 1 for every norm given no masks (max-class)."""
    if masks is None:
        return [1] * len(nb)
    beats, loses = masks
    return [(m & b).bit_count() - (m & lo).bit_count() for m, b, lo in zip(nb, beats, loses)]


def _admitted(
    algorithm: str,
    point_seed: int,
    adj: list[list[int]],
    nb: list[int],
    classes: tuple[list[list[int]], list[int]] | None,
    rng: random.Random,
) -> list[int]:
    """The positions that algorithm admits on one instance, given its
    neighbours as position lists and as masks and its classes and their
    ranking (None if no colouring algorithm runs). Random drop reseeds rng
    with its stream of point_seed. A colouring algorithm admits its
    uncurtailed norms: those with no neighbour admitted before them; a
    class is independent, so its members never curtail each other."""
    if algorithm == "random-drop":
        rng.seed(derive_seed(point_seed, "random-drop"))
        return _random_drop(adj, rng)
    if algorithm == "preferred":
        # zero-padded ids sort in position order, so the oracle's tie-break holds
        best = _max_admissible(nb)
        return [i for i in range(len(nb)) if best >> i & 1]
    admitted, seen = [], 0
    for members in _admission(algorithm, adj, *classes):
        for i in members:
            if not nb[i] & seen:
                admitted.append(i)
            seen |= 1 << i
    return admitted


def run_benchmark(cfg: BenchConfig) -> list[BenchRow]:
    """Run the configured sweep; deterministic for a fixed config."""
    n, policy, metric = cfg.n_norms, cfg.policy, cfg.metric
    norms = _norm_set(n)
    algorithms = sorted(cfg.algorithms)
    colours = any(a in ALGORITHMS for a in algorithms)
    metric_masks = class_masks = None
    if metric is not Metric.ADMITTED_COUNT:
        ranks = default_weak_ordering(n) if policy.ranks is None else policy.ranks
        # UnknownNormId names the first norm left unranked, before any instance
        metric_masks = _score_masks(Policy.weak_order(ranks), norms)
    if colours:
        class_masks = _score_masks(policy, norms)
    shared = class_masks == metric_masks  # then each norm is scored once per instance
    label, column = policy_label(policy), metric.value.replace("-", "_")
    runs = [(a, "none" if a in BASELINES else label) for a in algorithms]
    bits = [1 << i for i in range(n)]
    rng = random.Random()  # seeded as Random(seed) is, once per stream
    rows: list[BenchRow] = []
    lo, hi = cfg.conflict_range
    for num_conflicts in range(lo, hi + 1):
        for trial in range(cfg.trials_per_point):
            point_seed = derive_seed(cfg.seed, num_conflicts, trial)
            rng.seed(point_seed)
            pairs = _draw(n, num_conflicts, cfg.duplicate_directed_pairs, rng)
            adj, nb = _neighbours(pairs, bits)
            scores = _scores(nb, metric_masks)
            classes = None
            if colours:
                classes = _classes(adj, scores if shared else _scores(nb, class_masks))[1:]
            for algorithm, name in runs:
                admitted = _admitted(algorithm, point_seed, adj, nb, classes, rng)
                if metric is not Metric.ADMITTED_COUNT:
                    value = sum(map(scores.__getitem__, admitted))
                    if metric is Metric.SCORE_AVG:
                        value = value / len(admitted) if admitted else 0
                    values = [(column, value)]
                elif algorithm.startswith("curtail"):
                    # Curtailing algorithms admit everything, so a raw count
                    # says nothing; report how much survived uncurtailed
                    # instead. Each conflict curtails its later-admitted end once.
                    values = [("curtailment_total", sum(map(len, adj)) // 2),
                              ("uncurtailed_count", len(admitted))]
                else:
                    values = [("admitted_count", len(admitted))]
                for m, v in values:
                    rows.append(
                        BenchRow(num_conflicts, trial, algorithm, name, m, float(v), point_seed))
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
