"""Brute-force ground truth for small conflict graphs.

Conflicts are bidirectional attacks, so the argumentation framework over a
conflict graph is symmetric: every argument counter-attacks its attackers,
which makes the admissible sets exactly the conflict-free (independent)
sets. The predicates here nevertheless check the definitions directly so
they stay an independent oracle for the resolution algorithms.

Predicates and searches read the graph's norm positions (see ``graph``);
ids go back only in results. A set of members is any iterable of ids but
a str (``graph._read_members``); anything else raises SchemaError naming
the argument. A member id outside the graph raises UnknownNormId naming
the first unknown id in input order.

The exhaustive searches (maximum admissible set, chromatic number) are
budget-capped; they exist to verify the fast paths, not to replace them.
This module also hosts the random-drop baseline used in benchmarks. Each
baseline wraps a core on positions, as ``dsatur`` wraps ``_dsatur``, which
the bench calls: ``_max_admissible`` on neighbour masks, ``_random_drop``
on a list of conflicts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .colouring import dsatur
from .errors import TooLarge
from .graph import ConflictGraph, NormId, _read_members

MAX_ADMISSIBLE_SEARCH = 24
MAX_CHROMATIC_SEARCH = 16


def _positions(g: ConflictGraph, members: Iterable[NormId]) -> frozenset[int]:
    return frozenset(map(g._position, _read_members(members, "members")))


def is_conflict_free(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff no conflict joins two members."""
    s = _positions(g, members)
    return all(s.isdisjoint(g._adj[i]) for i in s)


def _is_acceptable(g: ConflictGraph, i: int, s: frozenset[int]) -> bool:
    # i is acceptable wrt s iff s attacks every attacker of i.
    return all(not s.isdisjoint(g._adj[b]) for b in g._adj[i])


def is_admissible(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff conflict-free and every member's attackers are attacked back.

    With bidirectional attacks each member defends itself, so this agrees
    with is_conflict_free; both sides are computed from the definitions.
    """
    s = _positions(g, members)
    return all(s.isdisjoint(g._adj[i]) and _is_acceptable(g, i, s) for i in s)


def is_complete_extension(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff admissible and containing every norm acceptable wrt itself,
    that is, conflict-free with exactly its members acceptable."""
    s = _positions(g, members)
    acceptable = {i for i in range(len(g)) if _is_acceptable(g, i, s)}
    return all(s.isdisjoint(g._adj[i]) for i in s) and s == acceptable


def is_stable_extension(g: ConflictGraph, members: Iterable[NormId]) -> bool:
    """True iff conflict-free and attacking every norm outside the set, in
    O(n + m). With symmetric attacks these are the maximal conflict-free sets."""
    s = _positions(g, members)
    return all(s.isdisjoint(g._adj[i]) == (i in s) for i in range(len(g)))


@dataclass(frozen=True)
class ExtensionReport:
    members: frozenset[NormId]
    conflict_free: bool
    admissible: bool
    complete: bool


def report(g: ConflictGraph, members: Iterable[NormId]) -> ExtensionReport:
    members = _read_members(members, "members")
    return ExtensionReport(  # conflict_free first: it names an unknown or unhashable id
        conflict_free=is_conflict_free(g, members),
        members=frozenset(members),
        admissible=is_admissible(g, members),
        complete=is_complete_extension(g, members),
    )


def max_cardinality_admissible(g: ConflictGraph) -> frozenset[NormId]:
    """A maximum-cardinality conflict-free set, by exhaustive branch and bound.

    Equals a maximum independent set of the graph, and so a
    maximum-cardinality stable extension: the bench's ``preferred``
    baseline. Among maximum sets the one whose sorted id tuple is
    lexicographically smallest is returned. Raises TooLarge above the
    search budget.
    """
    n = len(g)
    # bit r stands for the norm whose id sorts r-th, at position order[r]
    order = sorted(range(n), key=g.ids.__getitem__)
    rank = sorted(range(n), key=order.__getitem__)  # the inverse of order
    best = _max_admissible([sum(1 << rank[j] for j in g._adj[i]) for i in order])
    return frozenset(g.ids[order[r]] for r in range(n) if (best >> r) & 1)


def _max_admissible(nb: Sequence[int]) -> int:
    """``max_cardinality_admissible`` on neighbour masks: bit j of nb[i] is
    set when i and j conflict. Returns the mask of the maximum set whose
    sorted positions are lexicographically smallest."""
    n = len(nb)
    if n > MAX_ADMISSIBLE_SEARCH:
        raise TooLarge(f"exhaustive admissible-set search capped at {MAX_ADMISSIBLE_SEARCH} norms")
    best_mask = 0
    best_count = 0

    def explore(chosen: int, count: int, free: int) -> None:
        # free: the norms after the last one decided that chosen does not
        # block; at most all of them can still join, which bounds the branch
        nonlocal best_mask, best_count
        if count + free.bit_count() <= best_count:
            return
        if not free:
            best_mask, best_count = chosen, count
            return
        bit = free & -free  # the next free norm; blocked ones are skipped
        explore(chosen | bit, count + 1, free & ~bit & ~nb[bit.bit_length() - 1])
        explore(chosen, count, free & ~bit)

    explore(0, 0, (1 << n) - 1)
    return best_mask


def chromatic_number(g: ConflictGraph) -> int:
    """Exact chromatic number via backtracking; capped for tractability."""
    n = len(g)
    if n > MAX_CHROMATIC_SEARCH:
        raise TooLarge(f"exact colouring search capped at {MAX_CHROMATIC_SEARCH} norms")
    if n == 0:
        return 0
    adj = g._adj
    order = sorted(range(n), key=lambda i: -len(adj[i]))  # ties stay in insertion order
    rank = sorted(range(n), key=order.__getitem__)  # the inverse of order
    earlier = [[rank[j] for j in adj[i] if rank[j] < r] for r, i in enumerate(order)]
    clique: set[int] = set()  # a greedy clique bounds the search from below
    for r, before in enumerate(earlier):
        if clique.issubset(before):
            clique.add(r)
    upper = dsatur(g).num_colours
    for k in range(len(clique), upper):
        if _colourable_with(earlier, k):
            return k
    return upper


def _colourable_with(earlier: list[list[int]], k: int) -> bool:
    n = len(earlier)
    colours = [-1] * n

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        forbidden = {colours[j] for j in earlier[i]}
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
    edges = [(i, j) for i, js in enumerate(g._adj) for j in js if j > i]  # g.edges' order
    return frozenset(map(g.ids.__getitem__, _random_drop(len(g), edges, rng)))


def _random_drop(n: int, edges: list[tuple[int, int]], rng: random.Random) -> list[int]:
    """``random_drop`` on positions 0..n-1 and their conflicts ``edges``,
    each once, in the order that fixes the draws; the survivors, in order."""
    alive = [True] * n
    live = edges  # edges with both ends alive, in the given order
    while live:
        dropped = live[rng.randrange(len(live))][rng.randrange(2)]
        alive[dropped] = False
        live = [e for e in live if dropped not in e]
    return [i for i in range(n) if alive[i]]
