"""Policy heuristics that score colour classes.

A policy scores each norm against its conflicting neighbours: +1 for each
neighbour the norm is preferred to and, under NET scoring, -1 for each one
preferred to it (GROSS counts wins only; ties count 0). A colour class
scores the sum over its members. Every pairwise policy keys each norm by
one rule (``_keys``): v is preferred to w exactly when key[v] < key[w]:

* lex posterior — the declaration tick, so the earlier norm wins
  (``prefer_recent`` negates it: the textbook reading, the newer wins);
* lex superior — the negated authority rank, so the stronger wins;
* lex specialis — the norm's own antecedent set, whose ``<`` is strict
  inclusion, so the more specific norm wins and incomparable sets tie;
* weak-order — the negated rank from a map that must rank every norm.

Max-class keys nothing: it scores every norm 1, so a class scores its size.

This module owns that rule: ``_norm_scores`` scores a graph's norms,
``_score_masks`` gives the same scores to a caller that holds neighbour
masks (the bench), and ``_class_totals`` sums them by class. A ``Policy``
refuses with SchemaError a rank map on any kind but weak-order (which
requires one), ``prefer_recent=True`` on any kind but lex posterior and
GROSS under max-class. A callable ``(graph, colouring, colour) -> float``
can stand in for a policy in the four algorithms and ``rank_colours``,
which call it once per class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .colouring import Colouring, _buckets, _by_position
from .errors import InvalidScore, SchemaError, UnknownNormId
from .graph import ConflictGraph, Norm, NormId, _read_members, _require_int, _shown

WeakOrdering = Mapping[NormId, int]


class ScoreMode(Enum):
    GROSS = "gross"
    NET = "net"


class PolicyKind(Enum):
    LEX_POSTERIOR = "lex-posterior"
    LEX_SUPERIOR = "lex-superior"
    LEX_SPECIALIS = "lex-specialis"
    WEAK_ORDER = "weak-order"
    MAX_CLASS = "max-class"


@dataclass(frozen=True)
class Policy:
    kind: PolicyKind
    mode: ScoreMode = ScoreMode.NET
    ranks: WeakOrdering | None = field(default=None, hash=False)
    prefer_recent: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PolicyKind):
            raise SchemaError(f"policy kind must be a PolicyKind, not {_shown(self.kind)}")
        if not isinstance(self.mode, ScoreMode):
            raise SchemaError(f"score mode must be a ScoreMode, not {_shown(self.mode)}")
        if not isinstance(self.prefer_recent, bool):
            raise SchemaError("prefer_recent: expected a bool")
        # a field that the kind does not read: each message starts with its name
        if self.prefer_recent and self.kind is not PolicyKind.LEX_POSTERIOR:
            raise SchemaError(f"prefer_recent: a {self.kind.value} policy has no direction to flip")
        if self.mode is ScoreMode.GROSS and self.kind is PolicyKind.MAX_CLASS:
            raise SchemaError("mode: a max-class policy scores class size, not gross")
        if self.ranks is not None and self.kind is not PolicyKind.WEAK_ORDER:
            raise SchemaError(f"ranks: a {self.kind.value} policy reads no rank map")
        if self.kind is PolicyKind.WEAK_ORDER:
            if self.ranks is None:
                raise SchemaError("weak-order policy requires a rank map")
            if not isinstance(self.ranks, Mapping):
                raise SchemaError(f"ranks: expected a mapping, not {type(self.ranks).__name__}")
            ranks = dict(self.ranks)
            for v, r in ranks.items():
                _require_int(r, f"rank of {_shown(v)}")
            # a read-only copy, so that a hashed policy cannot change
            object.__setattr__(self, "ranks", MappingProxyType(ranks))

    def __reduce__(self) -> tuple:
        ranks = None if self.ranks is None else dict(self.ranks)
        return (Policy, (self.kind, self.mode, ranks, self.prefer_recent))

    @classmethod
    def lex_posterior(
        cls, mode: ScoreMode = ScoreMode.NET, *, prefer_recent: bool = False
    ) -> "Policy":
        return cls(PolicyKind.LEX_POSTERIOR, mode, prefer_recent=prefer_recent)

    @classmethod
    def lex_superior(cls, mode: ScoreMode = ScoreMode.NET) -> "Policy":
        return cls(PolicyKind.LEX_SUPERIOR, mode)

    @classmethod
    def lex_specialis(cls, mode: ScoreMode = ScoreMode.NET) -> "Policy":
        return cls(PolicyKind.LEX_SPECIALIS, mode)

    @classmethod
    def weak_order(cls, ranks: WeakOrdering, mode: ScoreMode = ScoreMode.NET) -> "Policy":
        return cls(PolicyKind.WEAK_ORDER, mode, ranks=ranks)

    @classmethod
    def max_class(cls) -> "Policy":
        return cls(PolicyKind.MAX_CLASS)


Heuristic = Union[Policy, Callable[[ConflictGraph, Colouring, int], float]]


def _ranks(ranks: WeakOrdering, norms: Iterable[Norm]) -> list[int]:
    """Each norm's rank, in order; UnknownNormId names the first norm left unranked."""
    try:
        return [ranks[norm.id] for norm in norms]
    except KeyError as exc:
        raise UnknownNormId(f"weak ordering assigns no rank to {exc.args[0]!r}") from None


def _keys(policy: Policy, norms: Sequence[Norm]) -> list:
    """Each norm's key, in order, under one of the four pairwise kinds (the
    lower key wins; see the module docstring); callers turn max-class away
    first. Raises UnknownNormId for the first norm a weak order leaves unranked."""
    kind = policy.kind
    if kind is PolicyKind.LEX_POSTERIOR:
        sign = -1 if policy.prefer_recent else 1
        return [sign * norm.declared_at for norm in norms]
    if kind is PolicyKind.LEX_SUPERIOR:
        return [-norm.authority_rank for norm in norms]
    if kind is PolicyKind.LEX_SPECIALIS:
        return [norm.antecedents for norm in norms]
    return [-r for r in _ranks(policy.ranks, norms)]  # weak order


def _norm_score(g: ConflictGraph, key: Sequence | Mapping[int, object], i: int, net: bool) -> int:
    """+1 for each neighbour keyed above the norm at position i and, when
    net, -1 for each one keyed below it; equal and incomparable keys add 0."""
    kv = key[i]
    total = 0
    for j in g._adj[i]:
        kw = key[j]
        if kv < kw:
            total += 1
        elif net and kw < kv:
            total -= 1
    return total


def _norm_scores(g: ConflictGraph, policy: Policy) -> list[int]:
    """Each norm's score by position under a built-in policy: 1 for every
    norm under max-class. Raises UnknownNormId for the first norm a weak
    order leaves unranked."""
    if policy.kind is PolicyKind.MAX_CLASS:
        return [1] * len(g.norms)
    key = _keys(policy, g.norms)
    net = policy.mode is ScoreMode.NET
    return [_norm_score(g, key, i, net) for i in range(len(key))]


def _score_masks(policy: Policy, norms: Sequence[Norm]) -> tuple[list[int], list[int]] | None:
    """``_norm_scores`` for a caller holding each norm's neighbours as a mask
    of positions: per norm, the mask of the norms keyed above it (it beats
    them) and of those keyed below (it loses to them), so that it scores
    the neighbours in the first less those in the second. None under max-class."""
    if policy.kind is PolicyKind.MAX_CLASS:
        return None
    key = _keys(policy, norms)
    beats = [sum(1 << j for j, kw in enumerate(key) if kv < kw) for kv in key]
    loses = [0] * len(key)  # gross scoring counts wins only
    if policy.mode is ScoreMode.NET:
        loses = [sum(1 << j for j, kw in enumerate(key) if kw < kv) for kv in key]
    return beats, loses


def _class_totals(buckets: list[list[int]], scores: Sequence[int]) -> list[int]:
    """Each class's total: the sum of its members' scores (its size under
    max-class, which scores every norm 1)."""
    return [sum(map(scores.__getitem__, members)) for members in buckets]


def _best_first(totals: Sequence[float]) -> list[int]:
    """The classes 0..len(totals)-1, highest total first, ties to the lower
    colour id: a stable sort, so reverse=True keeps equal totals in order."""
    return sorted(range(len(totals)), key=totals.__getitem__, reverse=True)


def policy_label(policy: Heuristic) -> str:
    """Short, stable name used in CLI output, documents, and benchmark rows."""
    if isinstance(policy, Policy):
        if policy.kind is PolicyKind.MAX_CLASS:
            return policy.kind.value
        return f"{policy.kind.value}:{policy.mode.value}"
    name = getattr(policy, "__name__", None)
    return name if isinstance(name, str) else "custom"


def rank_colours(g: ConflictGraph, phi: Colouring, policy: Heuristic) -> list[int]:
    """All colour ids, best score first; ties go to the lower colour id.

    A built-in policy scores each norm once and sums the scores by class; a
    callable is called once per class. Raises UnknownNormId for a norm a
    weak order leaves unranked (named before an uncoloured one),
    IncompleteColouring naming the first norm in insertion order that phi
    leaves uncoloured, SchemaError for a policy neither a Policy nor
    callable, InvalidScore when a callable gives a class a non-number, a
    number too large for a float or a NaN, which no ranking orders.
    """
    if isinstance(policy, Policy):
        scores = _norm_scores(g, policy)  # so a norm left unranked is named first
        buckets = _buckets(_by_position(g, phi), phi.num_colours)
        return _best_first(_class_totals(buckets, scores))
    if not callable(policy):
        raise SchemaError(f"policy must be a Policy or a callable, not {_shown(policy)}")
    scores: list[float] = []
    for c in range(phi.num_colours):
        score = policy(g, phi, c)
        try:
            scores.append(float(score))
        except (TypeError, ValueError):
            raise InvalidScore(f"colour {c} scored {score!r}, not a number") from None
        except OverflowError:  # the value is not shown: an int of over 4,300 digits has no repr
            message = f"colour {c} scored a number too large for a float ({type(score).__name__})"
            raise InvalidScore(message) from None
        if math.isnan(scores[c]):
            raise InvalidScore(f"colour {c} scored NaN")
    return _best_first(scores)


def score_admitted_set(
    g: ConflictGraph, admitted: Iterable[NormId], ranks: WeakOrdering
) -> int:
    """Net preference score of an admitted set: its distinct members' net
    scores under the rank map, summed. Over the full vertex set the two
    signs cancel edge by edge, so the total is 0. Only admitted norms and
    their neighbours need ranks: UnknownNormId otherwise, or for a norm
    outside g, and SchemaError for a rank read that is not an integer, a
    ``ranks`` that is not a mapping or an ``admitted`` that is a str or not
    iterable.
    """
    # a repeated member counts once, kept where it is first seen
    members = dict.fromkeys(map(g._position, _read_members(admitted, "admitted")))
    if not isinstance(ranks, Mapping):
        raise SchemaError(f"ranks: expected a mapping, not {type(ranks).__name__}")
    norms = g.norms
    # read in order, each member then its neighbours, to name the first unranked norm
    read = {j: norms[j] for i in members for j in (i, *g._adj[i])}
    ranked = zip(read, _ranks(ranks, read.values()))
    # each rank negated once it is checked, so that the higher rank wins
    key = {j: -_require_int(r, f"rank of {g.ids[j]!r}") for j, r in ranked}
    return sum(_norm_score(g, key, i, True) for i in members)
