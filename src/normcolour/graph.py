"""Norms and the undirected conflict graph built over them.

Vertices are norms, which check their own fields when built; edges are
normative conflicts. Conflicts are symmetric: input pairs are accepted in
either orientation (and duplicated freely) but always collapse to a single
undirected edge. A graph is immutable once built and safe to share between
threads.

The package addresses a norm by its position in the norm list: the graph
owns the id-to-position map, read only through ``_position``, and each
norm's neighbours as ascending positions, and colouring, scoring, admission
and the oracle run on those. A conflict pair is a list or tuple of two
different norms' ids; an error names its input as a document path
(``conflicts[3]: unknown norm id 'x'``, ``conflicts[0][1]: expected a
string``, ``norms[2]: duplicate norm id``).

The public constructor and ``build_graph`` check each norm and pair once:
a norm must be a ``Norm`` (``norms[2]: expected a Norm``), which checked
its own fields, and both arguments must be iterable. A pair of exact types
passes on ``type`` tests; any other is checked with ``isinstance``, which
accepts a ``str`` subclass id or a namedtuple pair. There is no other way
to build a graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DuplicateNormId, NormColourError, SchemaError, SelfConflict, UnknownNormId

NormId = str


def _require_int(value: object, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer")
    return value


def _require_count(value: object, where: str) -> int:
    """_require_int for a count, which must also not be negative."""
    if _require_int(value, where) < 0:
        raise SchemaError(f"{where}: expected a non-negative integer")
    return value


def _shown(value: object) -> str:
    """repr(value) for an error message, or a stand-in when Python refuses to
    print it: an int of over 4,300 digits (see sys.set_int_max_str_digits)."""
    try:
        return repr(value)
    except ValueError:
        return "<too long to print>"


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
        id_, label, ants = self.id, self.label, self.antecedents
        if type(id_) is not str and not isinstance(id_, str) or not id_:
            raise SchemaError("id: expected a non-empty string")
        if type(label) is not str and not isinstance(label, str):
            raise SchemaError("label: expected a string")
        if type(self.declared_at) is not int:
            _require_int(self.declared_at, "declared_at")
        if type(self.authority_rank) is not int:
            _require_int(self.authority_rank, "authority_rank")
        if type(ants) is not list and not isinstance(ants, (list, tuple, set, frozenset)):
            raise SchemaError("antecedents: expected a list of strings")
        for atom in ants:  # before frozenset(ants), which an unhashable atom would break
            if type(atom) is not str and not isinstance(atom, str):
                i = next(i for i, a in enumerate(ants) if a is atom)  # the first to fail
                raise SchemaError(f"antecedents[{i}]: expected a string")
        object.__setattr__(self, "antecedents", frozenset(ants))


def _read_all(items: Iterable, where: str, what: str) -> tuple:
    """tuple(items), or SchemaError naming where when items is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        message = f"{where}: expected an iterable of {what}, not {_shown(items)}"
        raise SchemaError(message) from None


def _read_members(members: Iterable[NormId], where: str) -> tuple:
    """tuple(members) for an argument that names a set of norms; SchemaError
    naming where for a non-iterable or a str, which reads as its letters."""
    if isinstance(members, str):
        raise SchemaError(f"{where}: expected an iterable of norm ids, not a string")
    return _read_all(members, where, "norm ids")


def _pair_positions(index: dict[NormId, int], pairs: tuple, pair: object) -> tuple[int, int]:
    """The positions of a pair that the exact-type test refused, if the
    isinstance checks accept it; else its error, naming ``conflicts[k]`` for
    the first index k holding this very pair (an earlier copy fails alike)."""
    try:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(": expected a pair of norm ids")
        a, b = pair
        if not isinstance(a, str) or not isinstance(b, str):
            raise SchemaError(f"[{int(isinstance(a, str))}]: expected a string")
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise UnknownNormId(f": unknown norm id {a if i is None else b!r}")
        if i == j:
            raise SelfConflict(f": norm {a!r} cannot conflict with itself")
        return i, j
    except NormColourError as exc:
        k = next(k for k, p in enumerate(pairs) if p is pair)
        raise type(exc)(f"conflicts[{k}]{exc}") from None


class ConflictGraph:
    """An undirected conflict graph with deterministic vertex order.

    Vertex iteration order is the norm-list insertion order everywhere;
    all tie-breaking downstream relies on it.
    """

    __slots__ = ("norms", "ids", "_index", "_adj")

    def __init__(self, norms: Iterable[Norm], conflicts: Iterable[tuple[NormId, NormId]]):
        self.norms: tuple[Norm, ...] = _read_all(norms, "norms", "Norms")
        index: dict[NormId, int] = {}
        for pos, norm in enumerate(self.norms):
            if not isinstance(norm, Norm):
                raise SchemaError(f"norms[{pos}]: expected a Norm")
            if index.setdefault(norm.id, pos) != pos:
                raise DuplicateNormId(f"norms[{pos}]: duplicate norm id {norm.id!r}")
        self.ids: tuple[NormId, ...] = tuple(index)  # ids are unique, so in norm order
        self._index = index

        pairs = _read_all(conflicts, "conflicts", "pairs of norm ids")
        adj: list[set[int]] = [set() for _ in self.ids]
        for pair in pairs:
            try:
                if type(pair) is not list and type(pair) is not tuple:
                    raise TypeError  # a string or an object of two keys would unpack
                a, b = pair
                if type(a) is not str or type(b) is not str:
                    raise TypeError
                i, j = index[a], index[b]
                if i == j:
                    raise ValueError
            except (TypeError, ValueError, KeyError):
                i, j = _pair_positions(index, pairs, pair)
            adj[i].add(j)
            adj[j].add(i)
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, adj)))

    def _position(self, v: NormId) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownNormId(f"unknown norm id {_shown(v)}") from None

    # -- vertex access -------------------------------------------------

    def norm(self, v: NormId) -> Norm:
        return self.norms[self._position(v)]

    def __len__(self) -> int:
        return len(self.norms)

    def __contains__(self, v: object) -> bool:
        try:
            return v in self._index
        except TypeError:  # an unhashable id
            return False

    def __iter__(self) -> Iterator[NormId]:
        return iter(self.ids)

    # -- structure -----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[NormId, NormId], ...]:
        """Each conflict once, from its earlier norm, ordered by both positions."""
        ids = self.ids
        return tuple((ids[i], ids[j]) for i, js in enumerate(self._adj) for j in js if j > i)

    def neighbours(self, v: NormId) -> frozenset[NormId]:
        """Ids in conflict with v. Never contains v itself."""
        return frozenset(self.ids[j] for j in self._adj[self._position(v)])

    def degree(self, v: NormId) -> int:
        return len(self._adj[self._position(v)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return self.norms == other.norms and self._adj == other._adj

    def __repr__(self) -> str:
        return f"ConflictGraph({len(self.norms)} norms, {sum(map(len, self._adj)) // 2} conflicts)"


def build_graph(
    norms: Iterable[Norm], conflicts: Iterable[tuple[NormId, NormId]]
) -> ConflictGraph:
    """Build a conflict graph, collapsing duplicated/reversed conflict pairs.

    Raises DuplicateNormId, UnknownNormId, SelfConflict or SchemaError on
    malformed input, naming its index or argument (see the module docstring).
    """
    return ConflictGraph(norms, conflicts)
