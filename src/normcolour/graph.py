"""Norms and the undirected conflict graph built over them.

Vertices are norms, edges are normative conflicts. Conflicts are symmetric:
input pairs are accepted in either orientation (and duplicated freely) but
always collapse to a single undirected edge. A graph is immutable once built
and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DuplicateNormId, SchemaError, SelfConflict, UnknownNormId

NormId = str


@dataclass(frozen=True)
class Norm:
    """A norm plus the metadata the resolution policies consume.

    declared_at is an abstract tick (when the norm was imposed),
    authority_rank orders the issuing authorities (higher = stronger), and
    antecedents are the opaque condition atoms that activate the norm. All
    three default to "no information", matching graphs built from bare ids.
    """

    id: NormId
    label: str = ""
    declared_at: int = 0
    authority_rank: int = 0
    antecedents: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.id:
            raise SchemaError("norm id must be a non-empty string")
        if not isinstance(self.antecedents, frozenset):
            object.__setattr__(self, "antecedents", frozenset(self.antecedents))


class ConflictGraph:
    """An undirected conflict graph with deterministic vertex order.

    Vertex iteration order is the norm-list insertion order everywhere;
    all tie-breaking downstream relies on it.
    """

    __slots__ = ("norms", "ids", "edges", "_by_id", "_adj")

    def __init__(self, norms: Sequence[Norm], conflicts: Iterable[tuple[NormId, NormId]]):
        self.norms: tuple[Norm, ...] = tuple(norms)
        self.ids: tuple[NormId, ...] = tuple(norm.id for norm in self.norms)
        by_id: dict[NormId, Norm] = {}
        index: dict[NormId, int] = {}
        for pos, norm in enumerate(self.norms):
            if norm.id in by_id:
                raise DuplicateNormId(f"duplicate norm id {norm.id!r}")
            by_id[norm.id] = norm
            index[norm.id] = pos
        self._by_id = by_id

        adj: dict[NormId, set[NormId]] = {norm.id: set() for norm in self.norms}
        edge_set: set[tuple[NormId, NormId]] = set()
        for a, b in conflicts:
            if a not in index:
                raise UnknownNormId(f"conflict references unknown norm id {a!r}")
            if b not in index:
                raise UnknownNormId(f"conflict references unknown norm id {b!r}")
            if a == b:
                raise SelfConflict(f"norm {a!r} cannot conflict with itself")
            if index[a] > index[b]:
                a, b = b, a
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.edges: tuple[tuple[NormId, NormId], ...] = tuple(
            sorted(edge_set, key=lambda e: (index[e[0]], index[e[1]]))
        )
        self._adj: dict[NormId, frozenset[NormId]] = {
            v: frozenset(ws) for v, ws in adj.items()
        }

    # -- vertex access -------------------------------------------------

    def norm(self, v: NormId) -> Norm:
        try:
            return self._by_id[v]
        except KeyError:
            raise UnknownNormId(f"unknown norm id {v!r}") from None

    def __len__(self) -> int:
        return len(self.norms)

    def __contains__(self, v: object) -> bool:
        return v in self._by_id

    def __iter__(self) -> Iterator[NormId]:
        return iter(self.ids)

    # -- structure -----------------------------------------------------

    def neighbours(self, v: NormId) -> frozenset[NormId]:
        """Ids in conflict with v. Never contains v itself."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownNormId(f"unknown norm id {v!r}") from None

    def degree(self, v: NormId) -> int:
        return len(self.neighbours(v))

    def has_edge(self, a: NormId, b: NormId) -> bool:
        return b in self.neighbours(a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return self.norms == other.norms and set(self.edges) == set(other.edges)

    def __repr__(self) -> str:
        return f"ConflictGraph({len(self.norms)} norms, {len(self.edges)} conflicts)"


def build_graph(
    norms: Sequence[Norm], conflicts: Iterable[tuple[NormId, NormId]]
) -> ConflictGraph:
    """Build a conflict graph, collapsing duplicated/reversed conflict pairs.

    Raises DuplicateNormId, UnknownNormId, or SelfConflict on malformed input.
    """
    return ConflictGraph(norms, conflicts)
