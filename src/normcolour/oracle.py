"""Brute-force ground truth for small conflict graphs.

Conflicts are bidirectional attacks, so the argumentation framework over a
conflict graph is symmetric: every argument counter-attacks its attackers,
which makes the admissible sets exactly the conflict-free (independent)
sets. The predicates here nevertheless check the definitions directly so
they stay an independent oracle for the resolution algorithms.

The exhaustive searches (maximum admissible set, chromatic number) are
budget-capped; they exist to verify the fast paths, not to replace them.
This module also hosts the random-drop baseline used in benchmarks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .colouring import dsatur
from .errors import TooLarge, UnknownNormId
from .graph import ConflictGraph, NormId

MAX_ADMISSIBLE_SEARCH = 24
MAX_CHROMATIC_SEARCH = 16


def _as_member_set(g: ConflictGraph, members: Iterable[NormId]) -> frozenset[NormId]:
    s = frozenset(members)
    for v in s:
        if v not in g:
            raise UnknownNormId(f"unknown norm id {v!r}")
    return s


def is_conflict_free(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff no conflict joins two members."""
    s = _as_member_set(g, members)
    return all(g.neighbours(v).isdisjoint(s) for v in s)


def _is_acceptable(g: ConflictGraph, v: NormId, s: frozenset[NormId]) -> bool:
    # v is acceptable wrt s iff s attacks every attacker of v.
    return all(not g.neighbours(b).isdisjoint(s) for b in g.neighbours(v))


def is_admissible(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff conflict-free and every member's attackers are attacked back.

    With bidirectional attacks each member defends itself, so this agrees
    with is_conflict_free; both sides are computed from the definitions.
    """
    s = _as_member_set(g, members)
    return is_conflict_free(g, s) and all(_is_acceptable(g, v, s) for v in s)


def is_complete_extension(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff admissible and containing every norm acceptable wrt itself."""
    s = _as_member_set(g, members)
    if not is_admissible(g, s):
        return False
    return all(v in s for v in g.ids if _is_acceptable(g, v, s))


@dataclass(frozen=True)
class ExtensionReport:
    members: frozenset[NormId]
    conflict_free: bool
    admissible: bool
    complete: bool


def report(g: ConflictGraph, members: Iterable[NormId]) -> ExtensionReport:
    s = _as_member_set(g, members)
    return ExtensionReport(
        members=s,
        conflict_free=is_conflict_free(g, s),
        admissible=is_admissible(g, s),
        complete=is_complete_extension(g, s),
    )


def max_cardinality_admissible(g: ConflictGraph) -> frozenset[NormId]:
    """A maximum-cardinality conflict-free set, by exhaustive branch and bound.

    Equals a maximum independent set of the graph. Among maximum sets the
    one whose sorted id tuple is lexicographically smallest is returned.
    Raises TooLarge above the search budget.
    """
    n = len(g)
    if n > MAX_ADMISSIBLE_SEARCH:
        raise TooLarge(f"exhaustive admissible-set search capped at {MAX_ADMISSIBLE_SEARCH} norms")
    ids = sorted(g.ids)
    pos = {v: i for i, v in enumerate(ids)}
    adj = [0] * n
    for a, b in g.edges:
        adj[pos[a]] |= 1 << pos[b]
        adj[pos[b]] |= 1 << pos[a]

    best_mask = 0
    best_count = 0

    def explore(i: int, chosen: int, count: int, blocked: int) -> None:
        nonlocal best_mask, best_count
        if count + (n - i) <= best_count:
            return
        if i == n:
            best_mask, best_count = chosen, count
            return
        if not (blocked >> i) & 1:
            explore(i + 1, chosen | (1 << i), count + 1, blocked | adj[i])
        explore(i + 1, chosen, count, blocked)

    explore(0, 0, 0, 0)
    return frozenset(ids[i] for i in range(n) if (best_mask >> i) & 1)


def chromatic_number(g: ConflictGraph) -> int:
    """Exact chromatic number via backtracking; capped for tractability."""
    n = len(g)
    if n > MAX_CHROMATIC_SEARCH:
        raise TooLarge(f"exact colouring search capped at {MAX_CHROMATIC_SEARCH} norms")
    if n == 0:
        return 0
    upper = dsatur(g).num_colours
    lower = max(1, len(_greedy_clique(g)))
    for k in range(lower, upper):
        if _colourable_with(g, k):
            return k
    return upper


def _greedy_clique(g: ConflictGraph) -> list[NormId]:
    order = sorted(g.ids, key=lambda v: -g.degree(v))
    clique: list[NormId] = []
    for v in order:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return clique


def _colourable_with(g: ConflictGraph, k: int) -> bool:
    order = sorted(g.ids, key=lambda v: -g.degree(v))
    pos = {v: i for i, v in enumerate(order)}
    earlier_neighbours = [
        [pos[w] for w in g.neighbours(v) if pos[w] < pos[v]] for v in order
    ]
    colours = [-1] * len(order)

    def assign(i: int, used: int) -> bool:
        if i == len(order):
            return True
        forbidden = {colours[j] for j in earlier_neighbours[i]}
        # allowing at most one fresh colour per step breaks colour symmetry
        for c in range(min(used + 1, k)):
            if c not in forbidden:
                colours[i] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
        colours[i] = -1
        return False

    return assign(0, 0)


def random_drop(g: ConflictGraph, rng: random.Random) -> frozenset[NormId]:
    """Baseline: drop a random endpoint of a random conflict until none
    remain, then keep the survivors. Always conflict-free."""
    alive = set(g.ids)
    live = list(g.edges)  # edges with both ends alive, in g.edges order
    while live:
        dropped = live[rng.randrange(len(live))][rng.randrange(2)]
        alive.discard(dropped)
        live = [e for e in live if dropped not in e]
    return frozenset(alive)
