"""The four conflict-resolution algorithms.

All four are one admission loop: colour the graph (saturation-degree
greedy), rank the colour classes with a policy, admit the classes best
first. Two switches, ``complete`` and ``first_class_only``, tell them apart:

* ``colour_resolve``        — admit the single best colour class.
* ``colour_resolve_complete`` — additionally pull in every vertex with no
  neighbour in that class. Conflicts are symmetric attacks, so every vertex
  left out is attacked by the admitted set, which is therefore a stable
  extension of the underlying argumentation framework (Coste-Marquis,
  Devred and Marquis 2005), and hence a preferred and a complete one
  (Dung 1995).
* ``colour_curtail``        — walk all classes from best to worst and admit
  everything, recording for each norm which previously-admitted conflicting
  norms it must yield to (its curtailments). These are handed forward:
  each norm keeps a list of its admitted neighbours, and admitting a norm
  appends its id to the list of each neighbour, so every list is already
  in admission order and all curtailments cost O(n + m), with no sort.
* ``colour_curtail_complete`` — like colour_curtail, but each class is
  topped up with eligible unadmitted vertices before it is admitted, so
  norms enter earlier and carry fewer curtailments.

So ``resolve`` is the first class of ``curtail``, and ``resolve-complete``
the first class of ``curtail-complete``. The colouring and the ranking
depend only on the graph and the policy, so ``_prepare`` makes them once.
``_admission`` is the loop, on norm positions: given each norm's
neighbours, each class's members (``_buckets``) and the ranking, it
returns the positions each admitted class takes; the bench calls it too.
``_admit`` hands curtailments forward and recolours the norms completion
moved in one pass, and packs a ``Resolution``. Completion sweeps in norm
insertion order, and a vertex joins only if none that joined before it
blocks it; letting all eligible vertices join at once could put two
conflicting vertices into one class.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .colouring import Colouring, _by_position, dsatur
from .graph import ConflictGraph, NormId
from .policies import Heuristic, policy_label, rank_colours


@dataclass(frozen=True)
class CurtailedNorm:
    """One admitted norm and the norms it was curtailed with respect to.

    ``curtailed_wrt`` lists conflicting norms admitted before this one, in
    their admission order; empty means the norm was admitted unconditionally.
    """

    norm: NormId
    curtailed_wrt: tuple[NormId, ...] = ()


@dataclass(frozen=True)
class Resolution:
    """Outcome of a resolution run.

    ``entries`` is in admission order. ``colouring`` is the final colouring
    (completion passes recolour vertices in place), norms in insertion
    order, and ``colour_order`` the policy's ranking of colour ids, best first.
    """

    algorithm: str
    policy: str
    entries: tuple[CurtailedNorm, ...]
    colouring: Colouring
    colour_order: tuple[int, ...]

    @property
    def admitted(self) -> tuple[NormId, ...]:
        return tuple(e.norm for e in self.entries)

    @property
    def admitted_unconditionally(self) -> frozenset[NormId]:
        return frozenset(e.norm for e in self.entries if not e.curtailed_wrt)

    @property
    def total_curtailments(self) -> int:
        return sum(len(e.curtailed_wrt) for e in self.entries)


def _prepare(g: ConflictGraph, policy: Heuristic) -> tuple[Colouring, list[int]]:
    """Colour g and rank its classes, best first: the start all four
    algorithms share."""
    phi = dsatur(g)
    return phi, rank_colours(g, phi, policy)


# algorithm name -> the switches (complete, first_class_only) of _admission
_SWITCHES = {
    "resolve": (False, True),
    "resolve-complete": (True, True),
    "curtail": (False, False),
    "curtail-complete": (True, False),
}


def _buckets(colour: list[int]) -> list[list[int]]:
    """Each colour class's members, by position in insertion order, given
    each norm's colour by position."""
    buckets: list[list[int]] = [[] for _ in range(max(colour, default=-1) + 1)]
    for i, c in enumerate(colour):
        buckets[c].append(i)
    return buckets


def _admission(
    algorithm: str, adj: Sequence[Collection[int]], buckets: list[list[int]], order: list[int]
) -> list[list[int]]:
    """Admit the classes ``buckets`` in ``order``, best first; see the module
    docstring. adj[i] holds the neighbours of position i, each once. Returns
    the positions that each admitted class takes, in admission order, class
    by class; completion draws some of them from later classes."""
    complete, first_class_only = _SWITCHES[algorithm]
    admitted = [False] * len(adj)
    unadmitted = range(len(adj))  # in insertion order; kept for completion only
    taken: list[list[int]] = []
    for c in order[:1] if first_class_only else order:
        # completion may have admitted some members with an earlier class
        members = [i for i in buckets[c] if not admitted[i]]
        if complete:
            # every unadmitted vertex outside the class's blocked neighbours
            # joins it, swept one at a time in insertion order; the class's
            # own members pass too, being independent, so they stay in order
            blocked = {j for i in members for j in adj[i]}
            members, rest = [], []
            for i in unadmitted:
                if i in blocked:
                    rest.append(i)
                else:
                    blocked.update(adj[i])
                    members.append(i)
            unadmitted = rest
        for i in members:
            admitted[i] = True
        taken.append(members)
    return taken


def _admit(algorithm: str, g: ConflictGraph, policy: Heuristic) -> Resolution:
    """Run one algorithm on g: ``_admission`` on ``_prepare(g, policy)``,
    packed as a Resolution."""
    phi, order = _prepare(g, policy)
    ids, adj = g.ids, g._adj
    colour = _by_position(g, phi)
    # each norm's admitted neighbours' ids, handed forward as each is admitted,
    # so in admission order
    wrt: list[list[NormId]] = [[] for _ in ids]
    entries = []
    for c, members in zip(order, _admission(algorithm, adj, _buckets(colour), order)):
        for i in members:
            colour[i] = c  # completion may have drawn i from a later class
            v = ids[i]
            entries.append(CurtailedNorm(v, tuple(wrt[i])))
            for j in adj[i]:
                wrt[j].append(v)
    final = Colouring(dict(zip(ids, colour)), phi.num_colours)
    return Resolution(algorithm, policy_label(policy), tuple(entries), final, tuple(order))


def colour_resolve(g: ConflictGraph, policy: Heuristic) -> Resolution:
    """Admit the colour class the policy scores highest."""
    return _admit("resolve", g, policy)


def colour_resolve_complete(g: ConflictGraph, policy: Heuristic) -> Resolution:
    """Admit the best class plus every vertex it does not conflict with."""
    return _admit("resolve-complete", g, policy)


def colour_curtail(g: ConflictGraph, policy: Heuristic) -> Resolution:
    """Admit every norm, curtailing it against earlier-admitted conflicts."""
    return _admit("curtail", g, policy)


def colour_curtail_complete(g: ConflictGraph, policy: Heuristic) -> Resolution:
    """Curtailment with each class completed before it is admitted.

    The completion pass only considers vertices that have not been admitted
    yet, so earlier (better) classes can absorb vertices from later ones,
    admitting them with fewer curtailments.
    """
    return _admit("curtail-complete", g, policy)


ALGORITHMS = {
    "resolve": colour_resolve,
    "resolve-complete": colour_resolve_complete,
    "curtail": colour_curtail,
    "curtail-complete": colour_curtail_complete,
}
