import math
import pickle
import re
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import pytest

from normcolour import (
    ALGORITHMS,
    IncompleteColouring,
    InvalidScore,
    NormColourError,
    Policy,
    PolicyKind,
    SchemaError,
    ScoreMode,
    UnknownColour,
    UnknownNormId,
    colour_resolve,
    dsatur,
    ordering_from_metadata,
    policy_label,
    rank_colours,
    score_admitted_set,
    score_colour,
)
from normcolour.bench import BenchConfig, Metric, preset_config
from normcolour.colouring import Colouring

from .conftest import complete_graph, make_graph


@pytest.fixture
def fork_graph():
    # v1 conflicts with both v2 and v3; declared at ticks 1, 2, 3
    return make_graph(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v1", "v3")],
        declared_at={"v1": 1, "v2": 2, "v3": 3},
    )


class TestScoreColour:
    def test_lex_posterior_gross_on_fork(self, fork_graph):
        phi = dsatur(fork_graph)
        assert phi.assignment == {"v1": 0, "v2": 1, "v3": 1}
        policy = Policy.lex_posterior(ScoreMode.GROSS)
        assert score_colour(fork_graph, phi, 0, policy) == 2.0
        assert score_colour(fork_graph, phi, 1, policy) == 0.0

    def test_lex_posterior_net_on_fork(self, fork_graph):
        phi = dsatur(fork_graph)
        policy = Policy.lex_posterior(ScoreMode.NET)
        assert score_colour(fork_graph, phi, 0, policy) == 2.0
        assert score_colour(fork_graph, phi, 1, policy) == -2.0

    def test_prefer_recent_flips_direction(self, fork_graph):
        phi = dsatur(fork_graph)
        policy = Policy.lex_posterior(ScoreMode.GROSS, prefer_recent=True)
        assert score_colour(fork_graph, phi, 0, policy) == 0.0
        assert score_colour(fork_graph, phi, 1, policy) == 2.0

    def test_edgeless_graph_scores_zero_everywhere(self):
        g = make_graph("abc", declared_at={"a": 1, "b": 2, "c": 3})
        phi = dsatur(g)
        for kind in (Policy.lex_posterior(), Policy.lex_superior(), Policy.lex_specialis()):
            assert score_colour(g, phi, 0, kind) == 0.0

    def test_max_class_returns_cardinality(self):
        # C4 plus an isolated vertex: dsatur classes of sizes 3 and 2
        g = make_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        phi = dsatur(g)
        sizes = Counter(phi.assignment.values())
        assert sorted(sizes.values()) == [2, 3]
        for c, size in sizes.items():
            assert score_colour(g, phi, c, Policy.max_class()) == float(size)

    def test_lex_superior_uses_authority(self):
        g = make_graph("ab", [("a", "b")], authority_rank={"a": 5, "b": 1})
        phi = dsatur(g)
        policy = Policy.lex_superior(ScoreMode.NET)
        assert score_colour(g, phi, phi.assignment["a"], policy) == 1.0
        assert score_colour(g, phi, phi.assignment["b"], policy) == -1.0

    def test_lex_specialis_prefers_strict_subset(self):
        g = make_graph(
            "ab", [("a", "b")], antecedents={"a": {"p"}, "b": {"p", "q"}}
        )
        phi = dsatur(g)
        policy = Policy.lex_specialis(ScoreMode.NET)
        assert score_colour(g, phi, phi.assignment["a"], policy) == 1.0
        assert score_colour(g, phi, phi.assignment["b"], policy) == -1.0

    def test_lex_specialis_incomparable_sets_tie(self):
        g = make_graph("ab", [("a", "b")], antecedents={"a": {"p"}, "b": {"q"}})
        phi = dsatur(g)
        for c in range(2):
            assert score_colour(g, phi, c, Policy.lex_specialis(ScoreMode.NET)) == 0.0

    def test_gross_at_least_net(self):
        g = make_graph(
            "abcd",
            [("a", "b"), ("b", "c"), ("c", "d")],
            declared_at={"a": 4, "b": 1, "c": 3, "d": 2},
        )
        phi = dsatur(g)
        for c in range(phi.num_colours):
            gross = score_colour(g, phi, c, Policy.lex_posterior(ScoreMode.GROSS))
            net = score_colour(g, phi, c, Policy.lex_posterior(ScoreMode.NET))
            assert gross >= net

    def test_unknown_colour(self, fork_graph):
        phi = dsatur(fork_graph)
        with pytest.raises(UnknownColour):
            score_colour(fork_graph, phi, phi.num_colours, Policy.max_class())

    def test_callable_heuristic_plugs_in(self, fork_graph):
        phi = dsatur(fork_graph)
        assert score_colour(fork_graph, phi, 1, lambda g, p, c: 2.5 * c) == 2.5

    def test_nan_class_score_is_rejected(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        phi = dsatur(g)
        assert phi.assignment == {"a": 1, "b": 0, "c": 1}

        def heuristic(graph, colouring, colour):
            return math.nan if colour == 0 else 1.0

        with pytest.raises(InvalidScore, match="colour 0"):
            rank_colours(g, phi, heuristic)
        with pytest.raises(InvalidScore, match="colour 0"):
            score_colour(g, phi, 0, heuristic)
        with pytest.raises(InvalidScore, match="colour 0"):
            colour_resolve(g, heuristic)
        assert score_colour(g, phi, 1, heuristic) == 1.0

    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_numeric_class_score_is_rejected(self, bad):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        phi = dsatur(g)

        def heuristic(graph, colouring, colour):
            return bad if colour == 0 else 1.0

        with pytest.raises(InvalidScore, match="colour 0"):
            rank_colours(g, phi, heuristic)
        with pytest.raises(InvalidScore, match="colour 0"):
            score_colour(g, phi, 0, heuristic)
        assert score_colour(g, phi, 1, heuristic) == 1.0

    @pytest.mark.parametrize(
        "bad", [10**400, 10**5000, Fraction(10**400, 3)], ids=["int", "int-no-repr", "fraction"]
    )
    def test_class_score_too_large_for_a_float_is_rejected(self, bad):
        g = make_graph("ab", [("a", "b")])
        phi = dsatur(g)
        message = rf"colour 0 .* too large for a float \({type(bad).__name__}\)"
        with pytest.raises(InvalidScore, match=message):
            rank_colours(g, phi, lambda graph, colouring, colour: bad)
        with pytest.raises(InvalidScore, match="colour 1"):
            score_colour(g, phi, 1, lambda graph, colouring, colour: bad)

    @pytest.mark.parametrize("policy", [None, "x", 3])
    @pytest.mark.parametrize("ids", ["abc", ""], ids=["path", "empty"])
    def test_a_policy_neither_a_policy_nor_callable_is_rejected(self, policy, ids):
        g = make_graph(ids, [("a", "b"), ("b", "c")] if ids else [])
        phi = dsatur(g)
        message = "^policy must be a Policy or a callable"
        for algorithm in ALGORITHMS.values():
            with pytest.raises(SchemaError, match=message):
                algorithm(g, policy)
        with pytest.raises(SchemaError, match=message):
            rank_colours(g, phi, policy)
        if ids:
            with pytest.raises(SchemaError, match=message):
                score_colour(g, phi, 0, policy)
        with pytest.raises(SchemaError, match=message):
            BenchConfig(policy, Metric.ADMITTED_COUNT)

    @pytest.mark.parametrize("policy", [Policy.max_class(), Policy.lex_posterior()])
    def test_uncoloured_norm_is_rejected(self, policy):
        # b and c have no colour; b comes first in insertion order
        g = make_graph("abc", [("a", "b")])
        phi = Colouring({"a": 0}, 1)
        with pytest.raises(IncompleteColouring, match="'b'"):
            rank_colours(g, phi, policy)
        with pytest.raises(IncompleteColouring, match="'b'"):
            score_colour(g, phi, 0, policy)


class TestRankColours:
    def test_ties_break_to_lower_colour_id(self):
        g = make_graph("abc")
        phi = Colouring({"a": 0, "b": 1, "c": 2}, 3)
        scores = {0: 2.0, 1: -3.0, 2: 2.0}

        def heuristic(graph, colouring, colour):
            return scores[colour]

        assert rank_colours(g, phi, heuristic) == [0, 2, 1]

    def test_single_colour(self):
        g = make_graph("ab")
        assert rank_colours(g, dsatur(g), Policy.max_class()) == [0]

    def test_triangle_with_distinct_ranks(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        phi = dsatur(g)
        policy = Policy.weak_order({"a": 3, "b": 2, "c": 1})
        # per-class net scores are +2, 0, -2
        expected = [phi.assignment["a"], phi.assignment["b"], phi.assignment["c"]]
        assert rank_colours(g, phi, policy) == expected

    def test_invariant_under_monotone_rank_transform(self):
        g = make_graph(
            "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]
        )
        phi = dsatur(g)
        ranks = {"a": 1, "b": 5, "c": 2, "d": 4, "e": 3}
        stretched = {v: 10 * r + 7 for v, r in ranks.items()}
        assert rank_colours(g, phi, Policy.weak_order(ranks)) == rank_colours(
            g, phi, Policy.weak_order(stretched)
        )


class TestOrderingFromMetadata:
    def test_earlier_declaration_ranks_higher(self):
        g = make_graph("ab", declared_at={"a": 1, "b": 2})
        ranks = ordering_from_metadata(g, PolicyKind.LEX_POSTERIOR)
        assert ranks["a"] > ranks["b"]

    def test_prefer_recent_flips(self):
        g = make_graph("ab", declared_at={"a": 1, "b": 2})
        ranks = ordering_from_metadata(g, PolicyKind.LEX_POSTERIOR, prefer_recent=True)
        assert ranks["b"] > ranks["a"]

    def test_equal_authority_stays_tied(self):
        g = make_graph("ab", authority_rank={"a": 3, "b": 3})
        ranks = ordering_from_metadata(g, PolicyKind.LEX_SUPERIOR)
        assert ranks["a"] == ranks["b"]

    def test_stronger_authority_ranks_higher(self):
        g = make_graph("ab", authority_rank={"a": 5, "b": 1})
        ranks = ordering_from_metadata(g, PolicyKind.LEX_SUPERIOR)
        assert ranks["a"] > ranks["b"]

    def test_prefer_recent_is_refused_for_lex_superior(self):
        with pytest.raises(SchemaError, match="prefer_recent: a lex-superior policy"):
            ordering_from_metadata(make_graph("ab"), PolicyKind.LEX_SUPERIOR, prefer_recent=True)

    def test_no_ordering_for_other_kinds(self):
        g = make_graph("ab")
        with pytest.raises(ValueError):
            ordering_from_metadata(g, PolicyKind.MAX_CLASS)

    @pytest.mark.parametrize(
        "kind", [PolicyKind.MAX_CLASS, PolicyKind.LEX_SPECIALIS, PolicyKind.WEAK_ORDER]
    )
    def test_other_kinds_are_a_package_error(self, kind):
        with pytest.raises(NormColourError, match="no metadata-derived ordering"):
            ordering_from_metadata(make_graph("ab"), kind)

    def test_derived_ranks_reproduce_metadata_policies(self):
        g = make_graph(
            "abcd",
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
            declared_at={"a": 3, "b": 1, "c": 4, "d": 2},
            authority_rank={"a": 1, "b": 9, "c": 2, "d": 9},
        )
        phi = dsatur(g)
        for mode in ScoreMode:
            posterior_ranks = Policy.weak_order(
                ordering_from_metadata(g, PolicyKind.LEX_POSTERIOR), mode
            )
            superior_ranks = Policy.weak_order(
                ordering_from_metadata(g, PolicyKind.LEX_SUPERIOR), mode
            )
            for c in range(phi.num_colours):
                assert score_colour(g, phi, c, posterior_ranks) == score_colour(
                    g, phi, c, Policy.lex_posterior(mode)
                )
                assert score_colour(g, phi, c, superior_ranks) == score_colour(
                    g, phi, c, Policy.lex_superior(mode)
                )


class TestScoreAdmittedSet:
    def test_top_norm_of_complete_graph_scores_all_wins(self):
        ids = [f"n{i:02d}" for i in range(16)]
        g = complete_graph(ids)
        ranks = {v: 15 - i for i, v in enumerate(ids)}
        assert score_admitted_set(g, {ids[0]}, ranks) == 15

    def test_empty_set_scores_zero(self, fork_graph):
        assert score_admitted_set(fork_graph, set(), {"v1": 1, "v2": 2, "v3": 3}) == 0

    def test_path_centre(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        assert score_admitted_set(g, {"b"}, {"b": 3, "a": 2, "c": 1}) == 2

    def test_full_vertex_set_sums_to_zero(self):
        g = make_graph(
            "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "e")]
        )
        assert score_admitted_set(g, g.ids, {"a": 4, "b": 0, "c": 2, "d": 2, "e": 9}) == 0

    def test_unknown_member(self):
        g = make_graph("ab", [("a", "b")])
        with pytest.raises(UnknownNormId):
            score_admitted_set(g, {"zz"}, {"a": 1, "b": 2})

    def test_missing_rank(self):
        g = make_graph("ab", [("a", "b")])
        with pytest.raises(UnknownNormId):
            score_admitted_set(g, {"a"}, {"a": 1})

    @pytest.mark.parametrize("rank", ["x", True, 1.5])
    def test_ranks_read_must_be_integers(self, rank):
        g = make_graph("ab", [("a", "b")])
        with pytest.raises(SchemaError, match="rank of 'a': expected an integer"):
            score_admitted_set(g, {"a"}, {"a": rank, "b": 1})

    def test_ranks_not_read_are_not_checked(self):
        g = make_graph("abc", [("a", "b")])
        assert score_admitted_set(g, {"a"}, {"a": 2, "b": 1, "c": "x"}) == 1

    def test_a_repeated_member_counts_once(self):
        g = make_graph("ab", [("a", "b")])
        ranks = {"a": 1, "b": 0}
        assert score_admitted_set(g, ["a", "a"], ranks) == score_admitted_set(g, {"a"}, ranks) == 1

    def test_a_repeated_member_keeps_the_first_unranked_norm_named(self):
        g = make_graph("abc", [("a", "b")])
        with pytest.raises(UnknownNormId, match="'b'"):
            score_admitted_set(g, ["a", "c", "a"], {"a": 1})

    @pytest.mark.parametrize("admitted, shown", [(None, "None"), (5, "5"), ("ab", "a string")])
    def test_admitted_must_be_an_iterable_of_ids(self, admitted, shown):
        g = make_graph("ab", [("a", "b")])
        message = f"admitted: expected an iterable of norm ids, not {shown}"
        with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
            score_admitted_set(g, admitted, {"a": 1, "b": 0})

    @pytest.mark.parametrize("ranks, shown", [(["x"], "list"), (None, "NoneType")])
    def test_ranks_must_be_a_mapping(self, ranks, shown):
        # Policy's message; before any rank is read, so even for an empty set
        g = make_graph("ab", [("a", "b")])
        for admitted in (["a"], []):
            with pytest.raises(SchemaError, match=f"^ranks: expected a mapping, not {shown}$"):
                score_admitted_set(g, admitted, ranks)

    def test_first_unranked_norm_is_named_member_then_neighbours(self):
        # a's neighbour d is read before the member b
        g = make_graph("abcd", [("a", "d")])
        with pytest.raises(UnknownNormId, match="'d'"):
            score_admitted_set(g, ["a", "b"], {"a": 1})


class TestWeakOrderCoverage:
    def test_unranked_isolated_norm_is_rejected(self):
        g = make_graph("abx", [("a", "b")])
        with pytest.raises(UnknownNormId, match="'x'"):
            colour_resolve(g, Policy.weak_order({"a": 2, "b": 1}))

    def test_first_unranked_norm_in_insertion_order_is_named(self):
        # scoring would meet d first (a neighbour of c); b is isolated
        g = make_graph("abcd", [("c", "d")])
        with pytest.raises(UnknownNormId, match="'b'"):
            rank_colours(g, dsatur(g), Policy.weak_order({"a": 1, "c": 2}))

    def test_prefers_needs_ranks_for_its_two_norms_only(self):
        g = make_graph("abx", [("a", "b")])
        policy = Policy.weak_order({"a": 2, "b": 1})
        assert policy.prefers(g, "a", "b") and not policy.prefers(g, "b", "a")
        with pytest.raises(UnknownNormId, match="'x'"):
            policy.prefers(g, "a", "x")

    def test_extra_ranks_are_ignored(self):
        g = make_graph("ab", [("a", "b")])
        assert colour_resolve(g, Policy.weak_order({"a": 2, "b": 1, "zz": 9})).admitted == ("a",)


class TestPolicyHashing:
    def test_weak_order_policy_is_hashable(self):
        a = Policy.weak_order({"a": 2, "b": 1})
        b = Policy.weak_order({"b": 1, "a": 2})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Policy.weak_order({"a": 1, "b": 2}), Policy.lex_posterior()}) == 3

    def test_bench_config_with_a_weak_order_is_hashable(self):
        hash(preset_config("score-sum"))

    def test_ranks_stay_a_read_only_mapping(self):
        ranks = {"a": 2, "b": 1}
        policy = Policy.weak_order(ranks)
        ranks["a"] = 0
        assert isinstance(policy.ranks, Mapping)
        assert dict(policy.ranks) == {"a": 2, "b": 1}
        with pytest.raises(TypeError):
            policy.ranks["a"] = 5  # type: ignore[index]

    def test_pickle_round_trip(self):
        policy = Policy.weak_order({"a": 2, "b": 1}, ScoreMode.GROSS)
        assert pickle.loads(pickle.dumps(policy)) == policy


def test_weak_order_requires_ranks():
    with pytest.raises(ValueError):
        Policy(PolicyKind.WEAK_ORDER)


# the 11 policies of the 5 x 2 x 2 x 2 combinations of (kind, mode, ranked, prefer_recent)
_ACCEPTED = {
    *((PolicyKind.LEX_POSTERIOR, mode, False, recent) for mode in ScoreMode for recent in (False, True)),
    *((PolicyKind.LEX_SUPERIOR, mode, False, False) for mode in ScoreMode),
    *((PolicyKind.LEX_SPECIALIS, mode, False, False) for mode in ScoreMode),
    *((PolicyKind.WEAK_ORDER, mode, True, False) for mode in ScoreMode),
    (PolicyKind.MAX_CLASS, ScoreMode.NET, False, False),
}
assert len(_ACCEPTED) == 11


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kind, mode", [(PolicyKind.LEX_SUPERIOR, "net"), ("lex-superior", ScoreMode.NET)]
    )
    def test_kind_and_mode_must_be_enum_members(self, kind, mode):
        with pytest.raises(ValueError):
            Policy(kind, mode)

    @pytest.mark.parametrize("field", ["kind", "mode"])
    def test_a_value_too_long_to_print_is_not_shown(self, field):
        fields = {"kind": PolicyKind.LEX_SUPERIOR, field: -(10**5000)}
        with pytest.raises(SchemaError, match=f"{field} must be a .* not <too long to print>"):
            Policy(**fields)

    @pytest.mark.parametrize("rank", ["2", True, 1.5, None])
    def test_ranks_must_be_integers(self, rank):
        with pytest.raises(ValueError, match="'b'"):
            Policy.weak_order({"a": 1, "b": rank, "c": 0})

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_prefer_recent_must_be_a_bool(self, flag):
        with pytest.raises(SchemaError, match="prefer_recent: expected a bool"):
            Policy(PolicyKind.LEX_POSTERIOR, prefer_recent=flag)

    def test_errors_are_package_errors_and_value_errors(self):
        with pytest.raises(NormColourError) as info:
            Policy.weak_order({"a": "1"})
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("ranks", [[1, 2], [("a", 1)]], ids=["values", "pairs"])
    def test_a_rank_map_must_be_a_mapping(self, ranks):
        with pytest.raises(SchemaError, match="ranks: expected a mapping, not list"):
            Policy.weak_order(ranks)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    @pytest.mark.parametrize("mode", list(ScoreMode))
    @pytest.mark.parametrize("ranked", [False, True])
    @pytest.mark.parametrize("recent", [False, True])
    def test_each_field_is_taken_only_by_the_kinds_that_read_it(self, kind, mode, ranked, recent):
        ranks = {"a": 1} if ranked else None
        if (kind, mode, ranked, recent) in _ACCEPTED:
            assert Policy(kind, mode, ranks, recent).ranks == ranks
        else:
            with pytest.raises(SchemaError):
                Policy(kind, mode, ranks, recent)


    @pytest.mark.parametrize(
        "policy", [Policy.lex_specialis(), Policy.weak_order({"v1": 1, "v2": 2, "v3": 3, "zz": 0})]
    )
    def test_prefers_rejects_a_norm_outside_the_graph(self, fork_graph, policy):
        with pytest.raises(UnknownNormId, match="'zz'"):
            policy.prefers(fork_graph, "v1", "zz")


def test_max_class_prefers_nothing():
    g = make_graph(
        "abc",
        [("a", "b"), ("b", "c")],
        declared_at={"a": 1, "b": 2, "c": 3},
        authority_rank={"a": 3, "b": 2, "c": 1},
    )
    policy = Policy.max_class()
    assert not any(policy.prefers(g, a, b) for a in g.ids for b in g.ids)


def test_policy_labels():
    assert policy_label(Policy.max_class()) == "max-class"
    assert policy_label(Policy.lex_posterior()) == "lex-posterior:net"
    assert policy_label(Policy.weak_order({}, ScoreMode.GROSS)) == "weak-order:gross"

    def my_heuristic(g, phi, c):
        return 0.0

    assert policy_label(my_heuristic) == "my_heuristic"

    class Unnamed:
        def __call__(self, g, phi, c):
            return 0.0

    named_five = Unnamed()
    named_five.__name__ = 5
    assert policy_label(Unnamed()) == "custom"
    assert policy_label(named_five) == "custom"
