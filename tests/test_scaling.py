"""Complexity pinned by counted work, not by time.

Each position-level core runs at n and 4n norms on a seeded random graph
with m = 5n conflicts, and ``line_events`` counts the ``sys.settrace``
line events of the one call. log4 of the ratio of the two counts is the
core's empirical exponent (Goldsmith, Aiken and Wilkerson 2007,
"Measuring empirical computational complexity", ESEC/FSE), which must
lie within the bounds written beside the core. Unlike a time, a count
does not drift with the machine: the exponents below agreed to two
decimals on CPython 3.10-3.13. Work inside a C call makes no line event,
so a slowdown hidden in a builtin does not show here.
"""
from __future__ import annotations

import math
import random
import sys

from normcolour import ConflictGraph, Norm, Policy
from normcolour.colouring import _dsatur
from normcolour.documents import parse_norm_document, write_norm_document, write_resolution
from normcolour.oracle import _random_drop
from normcolour.policies import _norm_scores
from normcolour.resolution import ALGORITHMS, _admission, _admit, _classes, colour_curtail

_N = 300
_POLICY = Policy.lex_posterior()
# each core's exponent bounds; linear in n + m unless stated
_LINEAR = (0.85, 1.15)
_BOUNDS = {
    "_dsatur": _LINEAR,  # O((n + m) log n), but heap operations are C calls
    **{f"_admission[{a}]": _LINEAR for a in ALGORITHMS},
    "_admit packing[curtail]": _LINEAR,  # curtailments handed forward, never sorted
    "ConflictGraph.__init__": _LINEAR,
    "parse_norm_document": _LINEAR,
    "write_resolution": _LINEAR,
    "_norm_scores": _LINEAR,
    # quadratic: each drop rebuilds the live conflict list (1.92-1.97 measured);
    # pinned here so that a linear random drop must tighten the bound
    "_random_drop": (1.85, 2.05),
}


def line_events(f, *args, only=None) -> int:
    """The line events of one call f(*args): in every frame it runs, or
    only in the frames running the code object ``only``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if only is None or frame.f_code is only else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        f(*args)
    finally:
        sys.settrace(previous)
    return count


def _graph(n: int) -> tuple[list[Norm], list[tuple[str, str]]]:
    """n norms whose metadata often ties and 5n distinct random conflicts, seeded."""
    rng = random.Random(f"scaling-{n}")
    norms = [Norm(f"n{i}", declared_at=rng.randrange(n), authority_rank=rng.randrange(5))
             for i in range(n)]
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 5 * n:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return norms, [(norms[i].id, norms[j].id) for i, j in sorted(pairs)]


def _calls(n: int) -> dict[str, tuple]:
    """Each core's call on the graph of n norms: (f, args, only)."""
    norms, pairs = _graph(n)
    g = ConflictGraph(norms, pairs)
    # max-class's ranking, largest class first, so that resolve admits a share of n
    _, buckets, order = _classes(g._adj, _norm_scores(g, Policy.max_class()))
    return {
        "_dsatur": (_dsatur, (g._adj,), None),
        **{f"_admission[{a}]": (_admission, (a, g._adj, buckets, order), None)
           for a in ALGORITHMS},
        # _admit's own lines only: the packing, without the colouring and admission it calls
        "_admit packing[curtail]": (_admit, ("curtail", g, _POLICY), _admit.__code__),
        "ConflictGraph.__init__": (ConflictGraph, (norms, pairs), None),
        "parse_norm_document": (parse_norm_document, (write_norm_document(g),), None),
        "write_resolution": (write_resolution, (colour_curtail(g, _POLICY),), None),
        "_norm_scores": (_norm_scores, (g, _POLICY), None),
        "_random_drop": (_random_drop, (g._adj, random.Random(0)), None),
    }


def test_each_core_grows_within_its_bound():
    def f():
        x = 1
        return g(x)

    def g(x):
        y = x + 1
        return y

    # the counter itself: every frame, or one code object's, and the tracer restored
    previous = sys.gettrace()
    assert (line_events(f), line_events(f, only=f.__code__)) == (4, 2)
    assert sys.gettrace() is previous
    small, large = _calls(_N), _calls(4 * _N)
    assert set(small) == set(_BOUNDS)
    exponents = {}
    for core, (f, args, only) in small.items():
        count = line_events(f, *args, only=only)
        f, args, only = large[core]
        exponents[core] = round(math.log(line_events(f, *args, only=only) / count, 4), 3)
    outside = {core: e for core, e in exponents.items()
               if not _BOUNDS[core][0] <= e <= _BOUNDS[core][1]}
    assert not outside, (outside, exponents)
