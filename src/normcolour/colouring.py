"""Proper vertex colourings of conflict graphs.

Colourings come from DSATUR (Brélaz 1979), a saturation-degree greedy
colouring whose pinned tie-breaks make every run of every algorithm
downstream reproducible:

* vertex selection: highest saturation, then highest degree, then norm
  insertion order;
* colour selection: the lowest already-used colour that no neighbour holds,
  else the smallest unused colour index.

Selection runs on a min-heap over the graph's norm positions (see
``graph``), whose entries order like (-saturation, -degree, position), so a
colouring costs O((n + m) log n) for n norms and m conflicts. Colouring a
vertex pushes a fresh entry for each uncoloured neighbour whose saturation
it raises, and the older entry stays in the heap. An entry is stale once
its vertex is coloured: since saturation only grows, a vertex's newest
entry sorts before its older ones, so the first of its entries to be
popped is always current. The loop colours one vertex per pass, n passes
in all, so it ends at the last vertex coloured and leaves the stale entries
still in the heap unpopped. A saturation is an int bitmask of the colours
held by coloured neighbours (the bitboard idiom of San Segundo,
Rodríguez-Losada and Jiménez 2011): its lowest clear bit is the colour to
take, its popcount the saturation degree. The loop is ``_dsatur``, which
reads neighbour positions and gives colours by position; ``dsatur`` runs it
on a graph and maps the result back to norm ids, and
``resolution._classes`` runs it for the algorithms and the bench.
``_by_position`` is the one way back from a colouring to positions, and
``_buckets`` lists each class's members from there.

The ``Colouring`` constructor checks that it is given a mapping, a count
that is not negative and every colour in it. It is the only way to build a
colouring, so DSATUR's and each algorithm's final one pass the same checks
as a caller's.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from .errors import IncompleteColouring, SchemaError, UnknownColour
from .graph import ConflictGraph, NormId, _require_count, _require_int, _shown


@dataclass(frozen=True)
class Colouring:
    """A total assignment of colour ids {0..num_colours-1} to vertices.

    Treated as immutable; algorithms that rework a colouring build a new one.
    """

    assignment: Mapping[NormId, int]
    num_colours: int

    def __post_init__(self) -> None:
        assignment = self.assignment
        if not isinstance(assignment, Mapping):
            raise SchemaError(f"assignment: expected a mapping, not {type(assignment).__name__}")
        _require_count(self.num_colours, "num_colours")
        for v, c in assignment.items():
            if type(c) is not int:  # skips only the call: _require_int passes every int
                _require_int(c, f"colour of {_shown(v)}")
            if not 0 <= c < self.num_colours:
                raise UnknownColour(
                    f"vertex {_shown(v)} has colour {_shown(c)}, "
                    f"not in 0..{_shown(self.num_colours - 1)}"
                )


def dsatur(g: ConflictGraph) -> Colouring:
    """Colour g greedily by descending saturation degree.

    Uses at most max-degree + 1 colours and is deterministic for a given
    graph thanks to the pinned tie-breaks described in the module docstring.
    ``assignment`` lists the norms in the order they were coloured.
    """
    colour, order = _dsatur(g._adj)
    ids = g.ids
    return Colouring({ids[i]: colour[i] for i in order}, max(colour, default=-1) + 1)


def _dsatur(adj: Sequence[Collection[int]]) -> tuple[list[int], list[int]]:
    """DSATUR on positions: adj[i] holds the neighbours of position i, each
    once. Returns each position's colour, and the positions in the order
    they were coloured; the colours used are 0..max(colour)."""
    n = len(adj)
    degree = list(map(len, adj))
    # a heap entry is one int ordered like (-saturation, -degree, index):
    # -saturation * stride + base[i], with 0 <= base[i] < stride
    max_degree = max(degree, default=0)
    stride = (max_degree + 1) * n
    base = [(max_degree - d) * n + i for i, d in enumerate(degree)]
    # saturation bitmask: bit c is set when a coloured neighbour holds colour c
    saturation = [0] * n
    colour = [-1] * n  # -1: not coloured yet
    order: list[int] = []
    heap = list(base)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush

    for _ in range(n):  # one norm per pass: ends at the last, leaving stale entries unpopped
        i = pop(heap) % n
        while colour[i] >= 0:  # stale; each uncoloured norm keeps an entry, so one follows
            i = pop(heap) % n
        s = saturation[i]
        c = (~s & (s + 1)).bit_length() - 1  # the lowest colour not in s
        colour[i] = c
        order.append(i)
        bit = 1 << c
        for j in adj[i]:
            if colour[j] < 0:
                s = saturation[j]
                if not s & bit:
                    s |= bit
                    saturation[j] = s
                    push(heap, base[j] - s.bit_count() * stride)

    return colour, order


def _buckets(colour: Sequence[int], k: int) -> list[list[int]]:
    """The members of each of k colour classes, by position in insertion
    order, given each norm's colour by position."""
    buckets: list[list[int]] = [[] for _ in range(k)]
    for i, c in enumerate(colour):
        buckets[c].append(i)
    return buckets


def _by_position(g: ConflictGraph, phi: Colouring) -> list[int]:
    """phi's colour of each norm of g, by position. Raises IncompleteColouring
    naming the first uncoloured norm in insertion order."""
    try:
        return [phi.assignment[v] for v in g.ids]
    except KeyError as exc:
        raise IncompleteColouring(f"vertex {exc.args[0]!r} has no colour") from None


def is_valid_colouring(g: ConflictGraph, phi: Colouring) -> bool:
    """True iff phi is proper: no conflict joins two same-coloured norms."""
    colour = _by_position(g, phi)
    return all(colour[i] != colour[j] for i, js in enumerate(g._adj) for j in js)

