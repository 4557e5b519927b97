"""Property suites: invariants of colourings, rank maps and the oracle
that need a domain or strategy of their own (an exact search, an affine
map, every subset), and the strategies the differential tests draw from.
Every other invariant of graphs, policies, norm documents and the
algorithms' outputs is checked in ``tests/test_differential.py``, on the
draw it compares with the reference."""
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from normcolour import (
    Norm,
    Policy,
    ScoreMode,
    build_graph,
    dsatur,
    rank_colours,
    score_admitted_set,
)
from normcolour.oracle import (
    chromatic_number,
    is_admissible,
    is_complete_extension,
    is_conflict_free,
    max_cardinality_admissible,
)


@st.composite
def graphs(draw, max_n=8, with_metadata=False):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ids = [f"v{i}" for i in range(n)]
    possible = list(combinations(ids, 2))
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        if possible
        else st.just([])
    )
    if with_metadata:
        atoms = ["p", "q", "r"]
        norms = [
            Norm(
                id=v,
                declared_at=draw(st.integers(-5, 5)),
                authority_rank=draw(st.integers(-3, 3)),
                antecedents=frozenset(draw(st.sets(st.sampled_from(atoms)))),
            )
            for v in ids
        ]
    else:
        norms = [Norm(v) for v in ids]
    return build_graph(norms, edges)


@st.composite
def graphs_with_policies(draw, max_n=8):
    """Graphs with metadata under any of the five policies, either scoring
    mode and, for lex posterior, either direction."""
    g = draw(graphs(max_n=max_n, with_metadata=True))
    mode = draw(st.sampled_from(list(ScoreMode)))
    return g, draw(st.one_of(
        st.just(Policy.max_class()),
        st.booleans().map(lambda recent: Policy.lex_posterior(mode, prefer_recent=recent)),
        st.just(Policy.lex_superior(mode)),
        st.just(Policy.lex_specialis(mode)),
        st.fixed_dictionaries({v: st.integers(-4, 4) for v in g.ids}).map(
            lambda ranks: Policy.weak_order(ranks, mode)
        ),
    ))


class TestColouringProperties:
    @given(graphs())
    def test_dsatur_never_beats_the_exact_oracle(self, g):
        assert dsatur(g).num_colours >= chromatic_number(g)


class TestPolicyProperties:
    @given(graphs(max_n=6), st.integers(1, 5), st.integers(-3, 3))
    def test_rank_colours_invariant_under_affine_rank_maps(self, g, scale, shift):
        ranks = {v: (i * 7) % 5 for i, v in enumerate(g.ids)}
        stretched = {v: scale * r + shift for v, r in ranks.items()}
        phi = dsatur(g)
        assert rank_colours(g, phi, Policy.weak_order(ranks)) == rank_colours(
            g, phi, Policy.weak_order(stretched)
        )

    @given(graphs(max_n=7))
    def test_full_set_scores_zero(self, g):
        ranks = {v: (i * 3) % 4 for i, v in enumerate(g.ids)}
        assert score_admitted_set(g, g.ids, ranks) == 0


class TestOracleProperties:
    @given(graphs(max_n=6))
    def test_admissible_iff_conflict_free_on_every_subset(self, g):
        for size in range(len(g) + 1):
            for subset in combinations(g.ids, size):
                assert is_admissible(g, subset) == is_conflict_free(g, subset)

    @given(graphs(max_n=7))
    def test_complete_extensions_never_exceed_the_maximum_admissible(self, g):
        mis = max_cardinality_admissible(g)
        for size in range(len(g) + 1):
            for subset in combinations(g.ids, size):
                if is_complete_extension(g, subset):
                    assert len(subset) <= len(mis)

