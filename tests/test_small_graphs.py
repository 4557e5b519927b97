"""Every labelled conflict graph on up to 5 norms, not a sample of them.

The Hypothesis tests draw graphs of up to 16 norms and can miss the one
labelled graph where a tie-break goes wrong; this test runs the four
algorithms on all 1,100 graphs on 0-5 norms (and on the 64 graphs on 4
norms under every weak order, 75 of them) and holds each result to the
reference in ``tests/test_differential.py``, to the oracle and to the
bench's own admission on the same instance. Positions carry metadata
drawn from few values, so every pairwise policy meets ties: equal
declaration ticks and authority ranks, and equal, nested and
incomparable antecedent sets. Background: Jackson's small-scope
hypothesis (Software Abstractions, 2006); bounded-exhaustive generation
as in Korat (Boyapati, Khurshid and Marinov, ISSTA 2002).
"""
from __future__ import annotations

import random
from itertools import combinations, product

from normcolour import ALGORITHMS, ConflictGraph, Norm, Policy, ScoreMode
from normcolour import bench
from normcolour.oracle import (
    is_admissible,
    is_stable_extension,
    max_cardinality_admissible,
    random_drop,
)
from normcolour.policies import _score_masks
from normcolour.resolution import _classes

from .test_differential import _ref_max_cardinality_admissible, _ref_random_drop, reference

_DECLARED_AT = (0, 1, 1, 0, 2)
_AUTHORITY = (1, 1, 0, 2, 0)
_ANTECEDENTS = ((), ("p",), ("p",), ("q",), ("p", "q"))
_POLICIES = (
    Policy.max_class(),
    Policy.lex_posterior(),
    Policy.lex_posterior(prefer_recent=True),
    Policy.lex_superior(ScoreMode.GROSS),
    Policy.lex_specialis(),
)


def _norms(n: int) -> list[Norm]:
    return [
        Norm(f"n{i}", declared_at=_DECLARED_AT[i], authority_rank=_AUTHORITY[i],
             antecedents=frozenset(_ANTECEDENTS[i]))
        for i in range(n)
    ]


def _every_graph(n: int):
    """Each labelled graph on n norms, with the same conflicts as the bench
    holds an instance: neighbour lists and masks by position."""
    norms, pairs = _norms(n), list(combinations(range(n), 2))
    for chosen in product((False, True), repeat=len(pairs)):
        edges = [pair for pair, on in zip(pairs, chosen) if on]
        g = ConflictGraph(norms, [(norms[i].id, norms[j].id) for i, j in edges])
        yield g, *bench._neighbours(edges, [1 << i for i in range(n)])


def _weak_orders(n: int):
    """Every weak order on n norms as ranks by position: each map onto
    0..k-1 for some k, so ranks tie exactly as the order's classes do."""
    for ranks in product(range(n), repeat=n):
        if set(ranks) == set(range(max(ranks, default=-1) + 1)):
            yield ranks


def _check(g: ConflictGraph, adj: list[list[int]], nb: list[int], policy: Policy) -> None:
    ids = g.ids
    index = {v: i for i, v in enumerate(ids)}
    classes = _classes(adj, bench._scores(nb, _score_masks(policy, g.norms)))[1:]
    expected = reference(g, policy)
    uncurtailed = {}
    for name, algorithm in ALGORITHMS.items():
        res = algorithm(g, policy)
        assert res == expected[name], (name, ids, adj)
        if name.startswith("curtail"):
            # each norm is curtailed by exactly the neighbours admitted before it
            earlier: list[int] = []
            for entry in res.entries:
                i = index[entry.norm]
                assert list(entry.curtailed_wrt) == [ids[j] for j in earlier if nb[i] >> j & 1]
                earlier.append(i)
        uncurtailed[name] = [e.norm for e in res.entries if not e.curtailed_wrt]
        # the bench admits, on its own instance, the norms the algorithm leaves uncurtailed
        admitted = bench._admitted(name, 0, adj, nb, classes, random.Random())
        assert [ids[i] for i in admitted] == uncurtailed[name], (name, ids, adj)
    assert is_admissible(g, uncurtailed["resolve"]), (ids, adj)
    assert is_admissible(g, uncurtailed["curtail"]), (ids, adj)
    assert is_stable_extension(g, uncurtailed["resolve-complete"]), (ids, adj)
    # the completed first class blocks every later norm, so only it is uncurtailed
    assert uncurtailed["curtail-complete"] == uncurtailed["resolve-complete"], (ids, adj)


def test_every_small_graph_meets_the_reference_and_the_oracle():
    for n in range(6):
        for g, adj, nb in _every_graph(n):
            for policy in _POLICIES:
                _check(g, adj, nb, policy)
            # the bench's baselines are the oracle's and the reference's, random
            # drop on the bench's own stream
            seed = bench.derive_seed(0, "random-drop")
            dropped = bench._admitted("random-drop", 0, adj, nb, None, random.Random())
            survivors = random_drop(g, random.Random(seed))
            assert frozenset(g.ids[i] for i in dropped) == survivors, adj
            assert survivors == _ref_random_drop(g, random.Random(seed)), adj
            best = bench._admitted("preferred", 0, adj, nb, None, random.Random())
            assert frozenset(g.ids[i] for i in best) == max_cardinality_admissible(g), adj
            assert frozenset(g.ids[i] for i in best) == _ref_max_cardinality_admissible(g), adj
    weak_orders = [Policy.weak_order({f"n{i}": r for i, r in enumerate(ranks)})
                   for ranks in _weak_orders(4)]
    for g, adj, nb in _every_graph(4):
        for policy in weak_orders:
            _check(g, adj, nb, policy)
