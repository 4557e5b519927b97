"""Policy heuristics that score colour classes.

A policy scores each norm against its conflicting neighbours: +1 for each
neighbour the norm is preferred to and, under NET scoring, -1 for each one
preferred to it (GROSS counts wins only; ties count 0). A colour class
scores the sum over its members. Every built-in policy keys each norm by
one rule (``_keys``), and v is preferred to w exactly when key[w] < key[v],
so ``Policy.prefers`` costs O(1):

* lex posterior — earlier declaration ranks higher (``prefer_recent``
  flips this to the textbook reading, where the newer norm wins);
* lex superior — the stronger authority ranks higher;
* lex specialis — a norm's own antecedent set, ordered in reverse, so a
  strict subset (the more specific norm) wins and incomparable sets tie;
* weak-order — an explicit rank map that must rank every norm;
* max-class — equal keys, so it prefers nothing.

Max-class scores every norm 1, so a class scores its size. A ``Policy``
takes a rank map with weak-order only (which requires one),
``prefer_recent=True`` with lex posterior only and GROSS with any kind but
max-class; it raises SchemaError for any other combination. Any callable
``(graph, colouring, colour) -> float`` can stand in for a policy wherever
one is accepted and is called once per class, so bespoke heuristics (trust
models, etc.) plug in without touching this module; anything else raises
SchemaError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .colouring import Colouring, _by_position
from .errors import InvalidScore, SchemaError, UnknownColour, UnknownNormId
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

    def prefers(self, g: ConflictGraph, a: NormId, b: NormId) -> bool:
        """Strict preference of a over b, O(1): b's key is below a's.
        Max-class prefers nothing. Raises UnknownNormId for an id outside g
        or for a or b left unranked by a weak order."""
        key_a, key_b = _keys(self, (g.norm(a), g.norm(b)))
        return key_b < key_a


Heuristic = Union[Policy, Callable[[ConflictGraph, Colouring, int], float]]


def _require_heuristic(policy: object) -> None:
    """Raise SchemaError unless policy is a Policy or a callable."""
    if not isinstance(policy, Policy) and not callable(policy):
        raise SchemaError(f"policy must be a Policy or a callable, not {_shown(policy)}")


class _Specific(frozenset):
    __lt__ = frozenset.__gt__  # reverse strict inclusion: the subset ranks higher


def _ranks(ranks: WeakOrdering, norms: Iterable[Norm]) -> list[int]:
    """Each norm's rank, in order; UnknownNormId names the first norm left unranked."""
    try:
        return [ranks[norm.id] for norm in norms]
    except KeyError as exc:
        raise UnknownNormId(f"weak ordering assigns no rank to {exc.args[0]!r}") from None


def _keys(policy: Policy, norms: Sequence[Norm]) -> list:
    """Each norm's key under a built-in policy, in order (see the module
    docstring). Raises UnknownNormId for the first norm a weak order leaves
    unranked."""
    kind = policy.kind
    if kind is PolicyKind.LEX_POSTERIOR:
        sign = 1 if policy.prefer_recent else -1
        return [sign * norm.declared_at for norm in norms]
    if kind is PolicyKind.LEX_SUPERIOR:
        return [norm.authority_rank for norm in norms]
    if kind is PolicyKind.LEX_SPECIALIS:
        return [_Specific(norm.antecedents) for norm in norms]
    if kind is PolicyKind.WEAK_ORDER:
        return _ranks(policy.ranks, norms)
    return [0] * len(norms)  # max-class: every pair ties


def _norm_score(g: ConflictGraph, key: Sequence | Mapping[int, object], i: int, net: bool) -> int:
    """+1 for every neighbour the norm at position i is preferred to and,
    when net, -1 for every one preferred to it; ties and incomparables add 0."""
    kv = key[i]
    total = 0
    for j in g._adj[i]:
        kw = key[j]
        if kw < kv:
            total += 1
        elif net and kv < kw:
            total -= 1
    return total


def _class_scores(
    g: ConflictGraph, phi: Colouring, policy: Heuristic, colours: Iterable[int]
) -> dict[int, float]:
    """Scores of the given classes of phi: each norm is scored once and the
    scores summed by class. Raises IncompleteColouring naming the first
    uncoloured norm in insertion order, SchemaError for a policy that is
    neither a Policy nor callable, InvalidScore when a callable gives a
    class a non-number, a number too large for a float or a NaN, which no
    ranking orders."""
    if isinstance(policy, Policy):
        key = _keys(policy, g.norms)
        net = policy.mode is ScoreMode.NET
        count = policy.kind is PolicyKind.MAX_CLASS  # its keys tie: each norm scores 1
        totals = [0] * phi.num_colours
        for i, c in enumerate(_by_position(g, phi)):
            totals[c] += 1 if count else _norm_score(g, key, i, net)
        return {c: float(totals[c]) for c in colours}
    _require_heuristic(policy)
    scores: dict[int, float] = {}
    for c in colours:
        score = policy(g, phi, c)
        try:
            scores[c] = float(score)
        except (TypeError, ValueError):
            raise InvalidScore(f"colour {c} scored {score!r}, not a number") from None
        except OverflowError:  # the value is not shown: an int of over 4,300 digits has no repr
            message = f"colour {c} scored a number too large for a float ({type(score).__name__})"
            raise InvalidScore(message) from None
        if math.isnan(scores[c]):
            raise InvalidScore(f"colour {c} scored NaN")
    return scores


def policy_label(policy: Heuristic) -> str:
    """Short, stable name used in CLI output, documents, and benchmark rows."""
    if isinstance(policy, Policy):
        if policy.kind is PolicyKind.MAX_CLASS:
            return policy.kind.value
        return f"{policy.kind.value}:{policy.mode.value}"
    name = getattr(policy, "__name__", None)
    return name if isinstance(name, str) else "custom"


def score_colour(g: ConflictGraph, phi: Colouring, c: int, policy: Heuristic) -> float:
    """Evaluate colour class c of phi under the given policy.

    A built-in policy scores every norm on each call, O(n + m); rank_colours
    scores all classes at once. Raises SchemaError when c is not an integer
    or policy is neither a Policy nor callable, UnknownColour when c is
    outside phi's colour range, IncompleteColouring when phi leaves a norm
    of g uncoloured, InvalidScore for a non-number or NaN.
    """
    if not 0 <= _require_int(c, "colour") < phi.num_colours:
        raise UnknownColour(f"colour {_shown(c)} not in 0..{_shown(phi.num_colours - 1)}")
    return _class_scores(g, phi, policy, (c,))[c]


def rank_colours(g: ConflictGraph, phi: Colouring, policy: Heuristic) -> list[int]:
    """All colour ids, best score first; ties go to the lower colour id.

    Raises UnknownNormId for a norm a weak order leaves unranked,
    IncompleteColouring for a norm phi leaves uncoloured, SchemaError for a
    policy neither a Policy nor callable, InvalidScore for a non-number or NaN.
    """
    scores = _class_scores(g, phi, policy, range(phi.num_colours))
    return sorted(scores, key=lambda c: (-scores[c], c))


def ordering_from_metadata(
    g: ConflictGraph, kind: PolicyKind, *, prefer_recent: bool = False
) -> dict[NormId, int]:
    """Derive an explicit rank map from norm metadata.

    Lex posterior ranks by negated declaration time (earlier declared =
    higher rank, unless prefer_recent), lex superior by authority rank.
    Raises SchemaError for any other kind and for prefer_recent with lex superior.
    """
    if kind is not PolicyKind.LEX_POSTERIOR and kind is not PolicyKind.LEX_SUPERIOR:
        raise SchemaError(f"no metadata-derived ordering for {kind}")
    return dict(zip(g.ids, _keys(Policy(kind, prefer_recent=prefer_recent), g.norms)))


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
    key = dict(zip(read, _ranks(ranks, read.values())))
    for j, r in key.items():
        _require_int(r, f"rank of {g.ids[j]!r}")
    return sum(_norm_score(g, key, i, True) for i in members)
