"""Property suites: structural invariants checked on randomised inputs,
with the brute-force oracle as the second opinion wherever one exists."""
import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcolour import (
    ALGORITHMS,
    Norm,
    Policy,
    ScoreMode,
    build_graph,
    colour_curtail,
    colour_curtail_complete,
    colour_resolve,
    colour_resolve_complete,
    dsatur,
    is_valid_colouring,
    rank_colours,
    score_admitted_set,
)
from normcolour import policies
from normcolour.documents import (
    ResolutionDocument,
    parse_norm_document,
    read_resolution,
    write_norm_document,
    write_resolution,
)
from normcolour.oracle import (
    chromatic_number,
    is_admissible,
    is_complete_extension,
    is_conflict_free,
    max_cardinality_admissible,
    random_drop,
)

from .conftest import class_totals


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
def graphs_with_policies(draw, max_n=8, pairwise_only=False):
    """Graphs with metadata under any of the five policies (or only the four
    pairwise ones), either scoring mode and, for lex posterior, either
    direction."""
    g = draw(graphs(max_n=max_n, with_metadata=True))
    mode = draw(st.sampled_from(list(ScoreMode)))
    choices = [
        st.booleans().map(lambda recent: Policy.lex_posterior(mode, prefer_recent=recent)),
        st.just(Policy.lex_superior(mode)),
        st.just(Policy.lex_specialis(mode)),
        st.fixed_dictionaries({v: st.integers(-4, 4) for v in g.ids}).map(
            lambda ranks: Policy.weak_order(ranks, mode)
        ),
    ]
    if not pairwise_only:
        choices.insert(0, st.just(Policy.max_class()))
    return g, draw(st.one_of(choices))


class TestGraphProperties:
    @given(graphs())
    def test_neighbour_symmetry(self, g):
        for v in g.ids:
            for w in g.neighbours(v):
                assert v in g.neighbours(w)
                assert w != v

    @given(graphs(), st.randoms(use_true_random=False))
    def test_build_ignores_pair_order_and_orientation(self, g, rnd):
        pairs = [list(e) for e in g.edges]
        for pair in pairs:
            if rnd.random() < 0.5:
                pair.reverse()
        pairs = pairs + [list(e) for e in g.edges]  # duplicates collapse too
        rnd.shuffle(pairs)
        rebuilt = build_graph(g.norms, [tuple(p) for p in pairs])
        assert rebuilt == g

    @given(graphs())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degree(v) for v in g.ids) == 2 * len(g.edges)


class TestColouringProperties:
    @given(graphs())
    def test_dsatur_is_proper(self, g):
        assert is_valid_colouring(g, dsatur(g))

    @given(graphs())
    def test_dsatur_respects_brooks_style_bound(self, g):
        max_degree = max((g.degree(v) for v in g.ids), default=0)
        assert dsatur(g).num_colours <= max_degree + 1

    @given(graphs())
    def test_dsatur_never_beats_the_exact_oracle(self, g):
        assert dsatur(g).num_colours >= chromatic_number(g)

    @given(graphs())
    def test_classes_partition_and_are_independent(self, g):
        phi = dsatur(g)
        assert sorted(phi.assignment) == sorted(g.ids)
        assert set(phi.assignment.values()) == set(range(phi.num_colours))
        for v, c in phi.assignment.items():
            assert all(phi.assignment[w] != c for w in g.neighbours(v))


class TestPolicyProperties:
    @given(graphs_with_policies())
    def test_gross_exceeds_net_by_the_loss_count(self, gp):
        g, policy = gp
        if policy.kind.value == "max-class":
            return
        phi = dsatur(g)
        gross, net = (
            class_totals(g, phi, replace(policy, mode=mode))
            for mode in (ScoreMode.GROSS, ScoreMode.NET)
        )
        key = policies._keys(policy, g.norms)
        for c in range(phi.num_colours):
            # the neighbours preferred to each member: a key below its own
            losses = sum(
                1
                for i, v in enumerate(g.ids)
                if phi.assignment[v] == c
                for j in g._adj[i]
                if key[j] < key[i]
            )
            assert gross[c] >= net[c]
            assert gross[c] - net[c] == losses

    @given(graphs())
    def test_max_class_scores_sum_to_vertex_count(self, g):
        assert sum(class_totals(g, dsatur(g), Policy.max_class())) == len(g)

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

    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_random_drop_is_conflict_free(self, g, seed):
        assert is_conflict_free(g, random_drop(g, random.Random(seed)))


class TestResolutionProperties:
    @given(graphs_with_policies())
    def test_resolve_is_admissible(self, gp):
        g, policy = gp
        assert is_admissible(g, colour_resolve(g, policy).admitted)

    @given(graphs_with_policies())
    def test_resolve_complete_is_a_complete_extension(self, gp):
        g, policy = gp
        res = colour_resolve_complete(g, policy)
        if len(g) == 0:
            assert res.entries == ()
        else:
            assert is_complete_extension(g, res.admitted)

    @given(graphs_with_policies())
    def test_resolve_complete_is_a_stable_extension(self, gp):
        # stable: conflict-free, and every norm outside has a neighbour inside
        g, policy = gp
        admitted = set(colour_resolve_complete(g, policy).admitted)
        for v in g.ids:
            inside = [w for w in g.neighbours(v) if w in admitted]
            if v in admitted:
                assert not inside
            else:
                assert inside

    @given(graphs_with_policies())
    def test_curtail_complete_classes_block_every_later_norm(self, gp):
        # each completed class is maximal among the norms not yet admitted
        g, policy = gp
        res = colour_curtail_complete(g, policy)
        colour = res.colouring.assignment
        later = set(g.ids)
        for c in res.colour_order:
            members = {v for v in later if colour[v] == c}
            later -= members
            for v in later:
                assert any(w in members for w in g.neighbours(v))

    @given(graphs_with_policies())
    def test_completion_only_grows_the_admitted_set(self, gp):
        g, policy = gp
        plain = set(colour_resolve(g, policy).admitted)
        completed = set(colour_resolve_complete(g, policy).admitted)
        assert plain <= completed

    @given(graphs_with_policies())
    def test_curtailing_algorithms_admit_every_norm_once(self, gp):
        g, policy = gp
        for fn in (colour_curtail, colour_curtail_complete):
            res = fn(g, policy)
            assert sorted(res.admitted) == sorted(g.ids)

    @given(graphs_with_policies())
    def test_total_curtailments_equal_conflict_count(self, gp):
        # every conflict curtails exactly one of its endpoints: the one
        # admitted later; completion moves norms between iterations but
        # cannot change that
        g, policy = gp
        assert colour_curtail(g, policy).total_curtailments == len(g.edges)
        assert colour_curtail_complete(g, policy).total_curtailments == len(g.edges)

    @given(graphs_with_policies())
    def test_curtailments_are_the_neighbours_admitted_earlier(self, gp):
        # by definition, an entry's curtailed_wrt lists the entry's
        # neighbours that were admitted before it, in admission order
        g, policy = gp
        for fn in (colour_curtail, colour_curtail_complete):
            earlier: list[str] = []
            for e in fn(g, policy).entries:
                neighbours = g.neighbours(e.norm)
                assert e.curtailed_wrt == tuple(v for v in earlier if v in neighbours)
                earlier.append(e.norm)

    @given(graphs_with_policies())
    def test_first_iteration_matches_the_plain_variants(self, gp):
        g, policy = gp
        for curtailing, plain in (
            (colour_curtail, colour_resolve),
            (colour_curtail_complete, colour_resolve_complete),
        ):
            res = curtailing(g, policy)
            if not res.colour_order:
                continue
            best = res.colour_order[0]
            first = [e.norm for e in res.entries if res.colouring.assignment[e.norm] == best]
            assert tuple(first) == plain(g, policy).admitted

    @given(graphs_with_policies())
    def test_uncurtailed_entries_are_conflict_free(self, gp):
        g, policy = gp
        for fn in (colour_curtail, colour_curtail_complete):
            assert is_conflict_free(g, fn(g, policy).admitted_unconditionally)

    @given(graphs_with_policies())
    def test_final_colourings_stay_proper(self, gp):
        g, policy = gp
        for fn in ALGORITHMS.values():
            assert is_valid_colouring(g, fn(g, policy).colouring)

    @given(graphs_with_policies())
    def test_deterministic(self, gp):
        g, policy = gp
        for fn in ALGORITHMS.values():
            assert fn(g, policy) == fn(g, policy)


class TestDocumentProperties:
    @given(graphs(with_metadata=True))
    def test_graph_documents_round_trip(self, g):
        assert parse_norm_document(write_norm_document(g)) == g

    @given(graphs_with_policies())
    def test_resolution_documents_round_trip(self, gp):
        g, policy = gp
        for fn in ALGORITHMS.values():
            res = fn(g, policy)
            expected = ResolutionDocument(
                res.algorithm, res.policy, res.colouring.num_colours, res.entries
            )
            assert read_resolution(write_resolution(res)) == expected
