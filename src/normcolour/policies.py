"""Policy heuristics that score colour classes.

A policy evaluates a colour class by how often its members win pairwise
preference comparisons against the norms they conflict with:

* lex posterior — the earlier-declared norm wins a comparison (the textbook
  reading prefers the newer norm; ``prefer_recent`` flips the direction);
* lex superior — the norm from the stronger authority wins;
* lex specialis — a norm whose antecedents are a strict subset of the
  other's wins, and incomparable antecedent sets are a tie;
* weak-order — an explicit rank map that must rank every norm; higher wins;
* max-class — ignores preferences entirely and scores class size.

Lex posterior and lex superior are weak orders too (``ordering_from_metadata``),
so those two and weak-order are scored by one rank-map kernel, the one
``score_admitted_set`` uses; lex specialis, a partial order, compares pairs.

GROSS scoring counts wins only; NET subtracts losses. Ties contribute
nothing either way. Any callable ``(graph, colouring, colour) -> float``
can stand in for a policy wherever one is accepted, so bespoke heuristics
(trust models, etc.) plug in without touching this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .colouring import Colouring
from .errors import UnknownColour, UnknownNormId
from .graph import ConflictGraph, NormId

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
    # Direction switch for lex posterior only: False follows the formula as
    # defined (earlier declaration wins), True prefers the newer norm.
    prefer_recent: bool = False

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.WEAK_ORDER and self.ranks is None:
            raise ValueError("weak-order policy requires a rank map")
        if self.ranks is not None:
            # a read-only copy, so that a hashed policy cannot change
            object.__setattr__(self, "ranks", MappingProxyType(dict(self.ranks)))

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

    def prefers(self, g: ConflictGraph, a: NormId, b: NormId) -> bool:
        """Strict preference of a over b under this policy."""
        if self.kind is PolicyKind.LEX_SPECIALIS:
            return g.norm(a).antecedents < g.norm(b).antecedents
        ranks = _rank_map(g, self)
        if ranks is None:
            raise ValueError(f"{self.kind.value} is not a pairwise-preference policy")
        return _rank(ranks, a) > _rank(ranks, b)


Heuristic = Union[Policy, Callable[[ConflictGraph, Colouring, int], float]]


def _rank(ranks: WeakOrdering, v: NormId) -> int:
    try:
        return ranks[v]
    except KeyError:
        raise UnknownNormId(f"weak ordering assigns no rank to {v!r}") from None


def _rank_map(g: ConflictGraph, policy: Heuristic) -> WeakOrdering | None:
    """The rank map a policy orders g's norms by, if it has one. Raises
    UnknownNormId naming the first norm a weak order leaves unranked."""
    if not isinstance(policy, Policy):
        return None
    if policy.kind is PolicyKind.WEAK_ORDER:
        for v in g.ids:
            if v not in policy.ranks:
                raise UnknownNormId(f"weak ordering assigns no rank to {v!r}")
        return policy.ranks
    if policy.kind in (PolicyKind.LEX_POSTERIOR, PolicyKind.LEX_SUPERIOR):
        return ordering_from_metadata(g, policy.kind, prefer_recent=policy.prefer_recent)
    return None


def _rank_score(
    g: ConflictGraph, members: Iterable[NormId], ranks: WeakOrdering, net: bool
) -> int:
    """+1 for every conflicting neighbour a member outranks and, when net,
    -1 for every one that outranks it; ties contribute 0."""
    total = 0
    for v in members:
        rv = _rank(ranks, v)
        for w in g.neighbours(v):
            rw = _rank(ranks, w)
            if rv > rw:
                total += 1
            elif net and rw > rv:
                total -= 1
    return total


def policy_label(policy: Heuristic) -> str:
    """Short, stable name used in CLI output, documents, and benchmark rows."""
    if isinstance(policy, Policy):
        if policy.kind is PolicyKind.MAX_CLASS:
            return policy.kind.value
        return f"{policy.kind.value}:{policy.mode.value}"
    return getattr(policy, "__name__", "custom")


def score_colour(g: ConflictGraph, phi: Colouring, c: int, policy: Heuristic) -> float:
    """Evaluate colour class c of phi under the given policy.

    Raises UnknownColour when c is outside phi's colour range.
    """
    if not 0 <= c < phi.num_colours:
        raise UnknownColour(f"colour {c} not in 0..{phi.num_colours - 1}")
    return _score_colour(g, phi, c, policy, _rank_map(g, policy))


def _score_colour(
    g: ConflictGraph, phi: Colouring, c: int, policy: Heuristic, ranks: WeakOrdering | None
) -> float:
    if not isinstance(policy, Policy):
        return float(policy(g, phi, c))

    members = [v for v in g.ids if phi.assignment[v] == c]
    if policy.kind is PolicyKind.MAX_CLASS:
        return float(len(members))
    net = policy.mode is ScoreMode.NET
    if ranks is not None:
        return float(_rank_score(g, members, ranks, net))

    # lex specialis is a partial order: compare each conflicting pair
    total = 0
    for v in members:
        for w in g.neighbours(v):
            if policy.prefers(g, v, w):
                total += 1
            elif net and policy.prefers(g, w, v):
                total -= 1
    return float(total)


def rank_colours(g: ConflictGraph, phi: Colouring, policy: Heuristic) -> list[int]:
    """All colour ids, best score first; ties go to the lower colour id.

    Raises UnknownNormId when a weak-order policy leaves a norm of g unranked.
    """
    ranks = _rank_map(g, policy)
    scores = {c: _score_colour(g, phi, c, policy, ranks) for c in range(phi.num_colours)}
    return sorted(scores, key=lambda c: (-scores[c], c))


def ordering_from_metadata(
    g: ConflictGraph, kind: PolicyKind, *, prefer_recent: bool = False
) -> dict[NormId, int]:
    """Derive an explicit rank map from norm metadata.

    Lex posterior ranks by negated declaration time (earlier declared =
    higher rank, unless prefer_recent), lex superior by authority rank.
    """
    if kind is PolicyKind.LEX_POSTERIOR:
        sign = 1 if prefer_recent else -1
        return {norm.id: sign * norm.declared_at for norm in g.norms}
    if kind is PolicyKind.LEX_SUPERIOR:
        return {norm.id: norm.authority_rank for norm in g.norms}
    raise ValueError(f"no metadata-derived ordering for {kind.value}")


def score_admitted_set(
    g: ConflictGraph, admitted: Iterable[NormId], ranks: WeakOrdering
) -> int:
    """Net preference score of an admitted set.

    Each admitted norm contributes +1 for every conflicting neighbour it
    outranks and -1 for every one that outranks it; ties contribute 0.
    Over the full vertex set the two signs cancel edge by edge, so the
    total is 0.
    """
    return _rank_score(g, admitted, ranks, net=True)
