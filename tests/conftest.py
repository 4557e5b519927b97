from __future__ import annotations

import random
from pathlib import Path

import pytest

from normcolour import Colouring, ConflictGraph, Norm, Policy, build_graph
from normcolour.colouring import _buckets, _by_position
from normcolour.policies import _class_totals, _norm_scores

DATA_DIR = Path(__file__).parent / "data"


def data_text(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


def make_graph(
    ids,
    edges=(),
    declared_at: dict | None = None,
    authority_rank: dict | None = None,
    antecedents: dict | None = None,
) -> ConflictGraph:
    """Build a small test graph; metadata maps default every field to 0/empty."""
    declared_at = declared_at or {}
    authority_rank = authority_rank or {}
    antecedents = antecedents or {}
    norms = [
        Norm(
            id=i,
            declared_at=declared_at.get(i, 0),
            authority_rank=authority_rank.get(i, 0),
            antecedents=frozenset(antecedents.get(i, ())),
        )
        for i in ids
    ]
    return build_graph(norms, edges)


def class_totals(g: ConflictGraph, phi: Colouring, policy: Policy) -> list[int]:
    """Each class of phi's score under a built-in policy, by colour id."""
    buckets = _buckets(_by_position(g, phi), phi.num_colours)
    return _class_totals(buckets, _norm_scores(g, policy))


def complete_graph(ids) -> ConflictGraph:
    ids = list(ids)
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return make_graph(ids, edges)


def random_graph(rng: random.Random, n: int, n_edges: int | None = None) -> ConflictGraph:
    """Uniform random graph on n vertices; edge count drawn if not given."""
    ids = [f"v{i}" for i in range(n)]
    possible = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    if n_edges is None:
        n_edges = rng.randint(0, len(possible))
    return make_graph(ids, rng.sample(possible, n_edges))


@pytest.fixture
def six_norm_graph() -> ConflictGraph:
    ids = [str(i) for i in range(1, 7)]
    return make_graph(ids, [("2", "4"), ("5", "6")], declared_at={i: int(i) for i in ids})
