"""JSON document formats for conflict graphs and resolutions.

A norm document looks like::

    {
      "norms": [
        {"id": "2", "label": "no disclosure", "declared_at": 3,
         "authority_rank": 1, "antecedents": ["joint-project"]},
        {"id": "4"}
      ],
      "conflicts": [["2", "4"]]
    }

Every norm field except ``id`` is optional (defaults: empty label, time 0,
rank 0, no antecedents). ``Norm`` checks the fields and ``build_graph`` the
pairs and ids; this module checks the JSON around them. Every failure names
its position or path: ``norms[3].declared_at: expected an integer``,
``conflicts[2]: unknown norm id 'x'``, ``norms[1]: duplicate norm id 'a'``.

Reading checks each norm and pair once, exact types first. A resolution
is written directly in ``json.dumps``'s layout and quoting. The reader's
checks are the one statement of its schema: the writer refuses what the
reader would refuse, with the reader's error.

``parse_norm_document`` runs with Python's cyclic garbage collector paused
(``_collector_paused``). While a 3,000-norm document is read, the
``json.loads`` result (some 21,000 lists and dicts) is alive through norm
and graph building, and each collection of the oldest generation walks all
of it: about a tenth of a ``resolve`` run went to such collections. Nothing
the parser builds holds a reference cycle, so reference counting still
frees all of it. The switch is process-wide: a thread that turns the
collector on or off while another thread parses a document may find its
setting restored when the parse ends. ``read_resolution`` is not paused:
no measured workload reads a large resolution document.
"""
from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .errors import DocumentSyntaxError, SchemaError
from .graph import ConflictGraph, Norm, NormId, _require_count, _require_int, build_graph
from .resolution import CurtailedNorm, Resolution


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, turning it back on afterwards
    only if it was on when the block began (see the module docstring).
    Used as a decorator, so the parser's frame, which holds the parsed
    JSON, is gone before the collector resumes and its first collection
    sees only what the parser returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _loads(text: str) -> object:
    if not isinstance(text, (str, bytes, bytearray)):
        kind = type(text).__name__
        raise SchemaError(f"document: expected a str, bytes or bytearray, not {kind}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentSyntaxError("JSON nested too deeply") from None
    except UnicodeDecodeError as exc:  # bytes not valid in the codec json.loads detects
        message = f"not {exc.encoding} at byte {exc.start} ({exc.reason})"
        raise DocumentSyntaxError(f"invalid JSON: {message}") from None
    except ValueError:  # an integer literal over Python's limit of digits
        message = f"an integer literal has over {sys.get_int_max_str_digits()} digits"
        raise DocumentSyntaxError(f"invalid JSON: {message}") from None


def _require_str(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string")
    return value


def _parse_norm(item: object, i: int) -> Norm:
    if type(item) is not dict and not isinstance(item, dict):
        raise SchemaError(f"norms[{i}]: expected an object")
    if "id" not in item:
        raise SchemaError(f"norms[{i}]: missing required field 'id'")
    try:
        return Norm(
            item["id"],
            item.get("label", ""),
            item.get("declared_at", 0),
            item.get("authority_rank", 0),
            item.get("antecedents", ()),
        )
    except SchemaError as exc:
        raise SchemaError(f"norms[{i}].{exc}") from None


@_collector_paused()
def parse_norm_document(text: str) -> ConflictGraph:
    """Parse a norm document into a conflict graph.

    Raises DocumentSyntaxError for malformed JSON, SchemaError for shape
    violations, and the build_graph errors (DuplicateNormId, UnknownNormId,
    SelfConflict) for semantic ones, each naming the offending input's path.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    raw_norms = doc.get("norms")
    if not isinstance(raw_norms, list):
        raise SchemaError("norms: expected a list")
    norms = [_parse_norm(item, i) for i, item in enumerate(raw_norms)]

    raw_conflicts = doc.get("conflicts", [])
    if not isinstance(raw_conflicts, list):
        raise SchemaError("conflicts: expected a list")
    return build_graph(norms, raw_conflicts)


def parse_rank_map(text: str) -> dict[NormId, int]:
    """Parse a weak-order rank map: a JSON object of integer ranks by norm id."""
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object of integer ranks")
    for v, rank in doc.items():
        _require_int(rank, repr(v))
    return doc


def write_norm_document(g: ConflictGraph) -> str:
    """Serialise a graph; default-valued (falsy) norm fields are omitted."""
    norms = []
    for norm in g.norms:  # vars() holds the fields in their declared order
        fields = vars(norm) | {"antecedents": sorted(norm.antecedents)}
        norms.append({k: v for k, v in fields.items() if v})  # an id is never empty
    doc = {"norms": norms, "conflicts": [list(edge) for edge in g.edges]}
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class ResolutionDocument:
    """The serialised projection of a Resolution (entries in admission order)."""

    algorithm: str
    policy: str
    colours_used: int
    entries: tuple[CurtailedNorm, ...]


def write_resolution(r: Resolution) -> str:
    """The resolution as JSON, laid out as ``json.dumps(doc, indent=2)``.
    Entries and curtailments may be any iterables, each read once; a value
    the reader would refuse raises the reader's SchemaError (``_refusal``)."""
    q = encode_basestring_ascii  # json.dumps's quoting; TypeError for anything but a str
    items, wrts, blocks = None, [], []  # wrts: each entry's curtailments, once read
    try:
        items = tuple(r.entries)
        for e in items:
            wrts.append(wrt := tuple(e.curtailed_wrt))
            listed = "[\n        " + ",\n        ".join(map(q, wrt)) + "\n      ]" if wrt else "[]"
            blocks.append(
                f'    {{\n      "norm": {q(e.norm)},\n      "curtailed_wrt": {listed}\n    }}'
            )
        listed = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
        # int.__repr__, as json.dumps writes an int subclass; it writes a bool as true or false
        count = int.__repr__(_require_count(r.colouring.num_colours, "colours_used"))
        return (
            f'{{\n  "algorithm": {q(r.algorithm)},\n  "policy": {q(r.policy)},\n'
            f'  "colours_used": {count},\n  "entries": {listed}\n}}\n'
        )
    except (TypeError, AttributeError, ValueError):
        raise _refusal(r, items, wrts) from None


def _refusal(r: Resolution, items: tuple | None, wrts: list[tuple]) -> SchemaError:
    """The reader's error for the document json.dumps would be given, where
    what has no JSON form (entries or curtailments not iterable, an entry
    without a norm) is null; else its own, for a count too long to print.
    Reads what the writer read and the entry after, which hold the first bad value."""
    entries = None if items is None else [
        {"norm": e.norm, "curtailed_wrt": list(wrts[i]) if i < len(wrts) else None}
        if hasattr(e, "norm") else None
        for i, e in enumerate(items[:len(wrts) + 1])
    ]
    count = getattr(r.colouring, "num_colours", None)  # null without a colouring
    _resolution_document(
        dict(algorithm=r.algorithm, policy=r.policy, colours_used=count, entries=entries)
    )
    return SchemaError(f"colours_used: an integer of over {sys.get_int_max_str_digits()} digits")


def read_resolution(text: str) -> ResolutionDocument:
    """Parse a resolution document; a SchemaError names the first bad value."""
    return _resolution_document(_loads(text))


def _resolution_document(doc: object) -> ResolutionDocument:
    """The schema of a resolution document, checked on a parsed one."""
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise SchemaError("entries: expected a list")
    entries = []
    for i, item in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(item, dict) or "norm" not in item:
            raise SchemaError(f"{where}: expected an object with a 'norm' field")
        wrt_raw = item.get("curtailed_wrt", [])
        if not isinstance(wrt_raw, list):
            raise SchemaError(f"{where}.curtailed_wrt: expected a list")
        wrt = tuple(
            _require_str(w, f"{where}.curtailed_wrt[{j}]") for j, w in enumerate(wrt_raw)
        )
        entries.append(CurtailedNorm(_require_str(item["norm"], f"{where}.norm"), wrt))
    return ResolutionDocument(
        algorithm=_require_str(doc.get("algorithm", ""), "algorithm"),
        policy=_require_str(doc.get("policy", ""), "policy"),
        colours_used=_require_count(doc.get("colours_used", 0), "colours_used"),
        entries=tuple(entries),
    )
