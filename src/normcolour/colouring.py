"""Proper vertex colourings of conflict graphs.

Colourings come from DSATUR, a saturation-degree greedy colouring whose
pinned tie-breaks make every run of every algorithm downstream reproducible:

* vertex selection: highest saturation, then highest degree, then norm
  insertion order;
* colour selection: the lowest already-used colour that no neighbour holds,
  else the smallest unused colour index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import IncompleteColouring, UnknownColour
from .graph import ConflictGraph, NormId


@dataclass(frozen=True)
class Colouring:
    """A total assignment of colour ids {0..num_colours-1} to vertices.

    Treated as immutable; algorithms that rework a colouring build a new one.
    """

    assignment: Mapping[NormId, int]
    num_colours: int

    def __post_init__(self) -> None:
        for v, c in self.assignment.items():
            if not 0 <= c < self.num_colours:
                raise UnknownColour(
                    f"vertex {v!r} has colour {c}, not in 0..{self.num_colours - 1}"
                )


def dsatur(g: ConflictGraph) -> Colouring:
    """Colour g greedily by descending saturation degree.

    Uses at most max-degree + 1 colours and is deterministic for a given
    graph thanks to the pinned tie-breaks described in the module docstring.
    """
    order = g.ids
    if not order:
        return Colouring({}, 0)

    assignment: dict[NormId, int] = {}
    # saturation set = distinct colours among already-coloured neighbours
    neighbour_colours: dict[NormId, set[int]] = {v: set() for v in order}
    degree = {v: g.degree(v) for v in order}
    num_used = 0

    for _ in range(len(order)):
        best = None
        best_key = (-1, -1)
        for v in order:
            if v in assignment:
                continue
            key = (len(neighbour_colours[v]), degree[v])
            if key > best_key:
                best = v
                best_key = key
        assert best is not None
        blocked = neighbour_colours[best]
        colour = next(c for c in range(num_used + 1) if c not in blocked)
        assignment[best] = colour
        num_used = max(num_used, colour + 1)
        for w in g.neighbours(best):
            if w not in assignment:
                neighbour_colours[w].add(colour)

    return Colouring(assignment, num_used)


def is_valid_colouring(g: ConflictGraph, phi: Colouring) -> bool:
    """True iff phi is proper: no conflict joins two same-coloured norms."""
    for v in g.ids:
        if v not in phi.assignment:
            raise IncompleteColouring(f"vertex {v!r} has no colour")
    return all(phi.assignment[a] != phi.assignment[b] for a, b in g.edges)

