"""Norms and the undirected conflict graph built over them.

Vertices are norms, which check their own fields when built; edges are
normative conflicts. Conflicts are symmetric: input pairs are accepted in
either orientation (and duplicated freely) but always collapse to a single
undirected edge. A graph is immutable once built and safe to share between
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DuplicateNormId, SchemaError, SelfConflict, UnknownNormId

NormId = str


def _require_int(value: object, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer")
    return value


@dataclass(frozen=True)
class Norm:
    """A norm plus the metadata the resolution policies consume.

    declared_at is an abstract tick (when the norm was imposed),
    authority_rank orders the issuing authorities (higher = stronger), and
    antecedents are the opaque condition atoms that activate the norm. All
    three default to "no information", matching graphs built from bare ids.
    id must be a non-empty str, label a str, declared_at and authority_rank
    ints (not bools), and antecedents a list, tuple, set or frozenset of str;
    a bad field raises SchemaError whose message starts with its name.
    """

    id: NormId
    label: str = ""
    declared_at: int = 0
    authority_rank: int = 0
    antecedents: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise SchemaError("id: expected a non-empty string")
        if not isinstance(self.label, str):
            raise SchemaError("label: expected a string")
        _require_int(self.declared_at, "declared_at")
        _require_int(self.authority_rank, "authority_rank")
        ants = self.antecedents
        if not isinstance(ants, (list, tuple, set, frozenset)):
            raise SchemaError("antecedents: expected a list of strings")
        for i, atom in enumerate(ants):
            if not isinstance(atom, str):
                raise SchemaError(f"antecedents[{i}]: expected a string")
        object.__setattr__(self, "antecedents", frozenset(ants))


class ConflictGraph:
    """An undirected conflict graph with deterministic vertex order.

    Vertex iteration order is the norm-list insertion order everywhere;
    all tie-breaking downstream relies on it.
    """

    __slots__ = ("norms", "ids", "edges", "_index", "_adj")

    def __init__(self, norms: Sequence[Norm], conflicts: Iterable[tuple[NormId, NormId]]):
        self.norms: tuple[Norm, ...] = tuple(norms)
        self.ids: tuple[NormId, ...] = tuple(norm.id for norm in self.norms)
        index: dict[NormId, int] = {}
        for pos, v in enumerate(self.ids):
            if index.setdefault(v, pos) != pos:
                raise DuplicateNormId(f"duplicate norm id {v!r}")
        self._index = index

        adj: dict[NormId, set[NormId]] = {v: set() for v in self.ids}
        for a, b in conflicts:
            if a not in index:
                raise UnknownNormId(f"conflict references unknown norm id {a!r}")
            if b not in index:
                raise UnknownNormId(f"conflict references unknown norm id {b!r}")
            if a == b:
                raise SelfConflict(f"norm {a!r} cannot conflict with itself")
            adj[a].add(b)
            adj[b].add(a)
        # Each edge once, from its earlier end, ordered by both ends' positions.
        self.edges: tuple[tuple[NormId, NormId], ...] = tuple(
            (v, self.ids[p])
            for i, v in enumerate(self.ids)
            for p in sorted(q for q in map(index.__getitem__, adj[v]) if q > i)
        )
        self._adj: dict[NormId, frozenset[NormId]] = {
            v: frozenset(ws) for v, ws in adj.items()
        }

    # -- vertex access -------------------------------------------------

    def norm(self, v: NormId) -> Norm:
        try:
            return self.norms[self._index[v]]
        except KeyError:
            raise UnknownNormId(f"unknown norm id {v!r}") from None

    def __len__(self) -> int:
        return len(self.norms)

    def __contains__(self, v: object) -> bool:
        return v in self._index

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
        return self.norms == other.norms and self.edges == other.edges

    def __repr__(self) -> str:
        return f"ConflictGraph({len(self.norms)} norms, {len(self.edges)} conflicts)"


def build_graph(
    norms: Sequence[Norm], conflicts: Iterable[tuple[NormId, NormId]]
) -> ConflictGraph:
    """Build a conflict graph, collapsing duplicated/reversed conflict pairs.

    Raises DuplicateNormId, UnknownNormId, or SelfConflict on malformed input.
    """
    return ConflictGraph(norms, conflicts)
