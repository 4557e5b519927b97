import math
import pickle
import random
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
    UnknownNormId,
    colour_resolve,
    dsatur,
    policy_label,
    rank_colours,
    score_admitted_set,
)
from normcolour import bench, policies
from normcolour.bench import BenchConfig, Metric, preset_config
from normcolour.colouring import Colouring

from .conftest import class_totals, complete_graph, make_graph


@pytest.fixture
def fork_graph():
    # v1 conflicts with both v2 and v3; declared at ticks 1, 2, 3
    return make_graph(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v1", "v3")],
        declared_at={"v1": 1, "v2": 2, "v3": 3},
    )


class TestClassScores:
    def test_lex_posterior_gross_on_fork(self, fork_graph):
        phi = dsatur(fork_graph)
        assert phi.assignment == {"v1": 0, "v2": 1, "v3": 1}
        assert class_totals(fork_graph, phi, Policy.lex_posterior(ScoreMode.GROSS)) == [2, 0]

    def test_lex_posterior_net_on_fork(self, fork_graph):
        phi = dsatur(fork_graph)
        assert class_totals(fork_graph, phi, Policy.lex_posterior(ScoreMode.NET)) == [2, -2]

    def test_prefer_recent_flips_direction(self, fork_graph):
        phi = dsatur(fork_graph)
        policy = Policy.lex_posterior(ScoreMode.GROSS, prefer_recent=True)
        assert class_totals(fork_graph, phi, policy) == [0, 2]

    def test_edgeless_graph_scores_zero_everywhere(self):
        g = make_graph("abc", declared_at={"a": 1, "b": 2, "c": 3})
        phi = dsatur(g)
        for kind in (Policy.lex_posterior(), Policy.lex_superior(), Policy.lex_specialis()):
            assert class_totals(g, phi, kind) == [0]

    def test_max_class_returns_cardinality(self):
        # C4 plus an isolated vertex: dsatur classes of sizes 3 and 2
        g = make_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        phi = dsatur(g)
        sizes = Counter(phi.assignment.values())
        assert sorted(sizes.values()) == [2, 3]
        totals = class_totals(g, phi, Policy.max_class())
        for c, size in sizes.items():
            assert totals[c] == size

    def test_lex_superior_uses_authority(self):
        g = make_graph("ab", [("a", "b")], authority_rank={"a": 5, "b": 1})
        phi = dsatur(g)
        totals = class_totals(g, phi, Policy.lex_superior(ScoreMode.NET))
        assert totals[phi.assignment["a"]] == 1
        assert totals[phi.assignment["b"]] == -1

    def test_equal_authority_stays_tied(self):
        g = make_graph("ab", [("a", "b")], authority_rank={"a": 3, "b": 3})
        assert class_totals(g, dsatur(g), Policy.lex_superior(ScoreMode.NET)) == [0, 0]

    def test_lex_specialis_prefers_strict_subset(self):
        g = make_graph(
            "ab", [("a", "b")], antecedents={"a": {"p"}, "b": {"p", "q"}}
        )
        phi = dsatur(g)
        totals = class_totals(g, phi, Policy.lex_specialis(ScoreMode.NET))
        assert totals[phi.assignment["a"]] == 1
        assert totals[phi.assignment["b"]] == -1

    def test_lex_specialis_incomparable_sets_tie(self):
        g = make_graph("ab", [("a", "b")], antecedents={"a": {"p"}, "b": {"q"}})
        assert class_totals(g, dsatur(g), Policy.lex_specialis(ScoreMode.NET)) == [0, 0]

    def test_gross_at_least_net(self):
        g = make_graph(
            "abcd",
            [("a", "b"), ("b", "c"), ("c", "d")],
            declared_at={"a": 4, "b": 1, "c": 3, "d": 2},
        )
        phi = dsatur(g)
        gross = class_totals(g, phi, Policy.lex_posterior(ScoreMode.GROSS))
        net = class_totals(g, phi, Policy.lex_posterior(ScoreMode.NET))
        assert all(x >= y for x, y in zip(gross, net))

    def test_derived_ranks_reproduce_metadata_policies(self):
        g = make_graph(
            "abcd",
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
            declared_at={"a": 3, "b": 1, "c": 4, "d": 2},
            authority_rank={"a": 1, "b": 9, "c": 2, "d": 9},
        )
        phi = dsatur(g)
        # the rank maps the two metadata policies read: earlier declared or
        # stronger authority ranks higher
        posterior = {norm.id: -norm.declared_at for norm in g.norms}
        superior = {norm.id: norm.authority_rank for norm in g.norms}
        for mode in ScoreMode:
            assert class_totals(g, phi, Policy.weak_order(posterior, mode)) == class_totals(
                g, phi, Policy.lex_posterior(mode)
            )
            assert class_totals(g, phi, Policy.weak_order(superior, mode)) == class_totals(
                g, phi, Policy.lex_superior(mode)
            )

    def test_callable_heuristic_plugs_in(self, fork_graph):
        phi = dsatur(fork_graph)
        assert rank_colours(fork_graph, phi, lambda g, p, c: 2.5 * c) == [1, 0]

    def test_nan_class_score_is_rejected(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        phi = dsatur(g)
        assert phi.assignment == {"a": 1, "b": 0, "c": 1}

        def heuristic(graph, colouring, colour):
            return math.nan if colour == 0 else 1.0

        with pytest.raises(InvalidScore, match="colour 0"):
            rank_colours(g, phi, heuristic)
        with pytest.raises(InvalidScore, match="colour 0"):
            colour_resolve(g, heuristic)

    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_numeric_class_score_is_rejected(self, bad):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        phi = dsatur(g)

        def heuristic(graph, colouring, colour):
            return bad if colour == 0 else 1.0

        with pytest.raises(InvalidScore, match="colour 0"):
            rank_colours(g, phi, heuristic)

    @pytest.mark.parametrize(
        "bad", [10**400, 10**5000, Fraction(10**400, 3)], ids=["int", "int-no-repr", "fraction"]
    )
    def test_class_score_too_large_for_a_float_is_rejected(self, bad):
        g = make_graph("ab", [("a", "b")])
        phi = dsatur(g)
        message = rf"colour 0 .* too large for a float \({type(bad).__name__}\)"
        with pytest.raises(InvalidScore, match=message):
            rank_colours(g, phi, lambda graph, colouring, colour: bad)

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
        with pytest.raises(SchemaError, match="^policy must be a Policy, not"):
            BenchConfig(policy, Metric.ADMITTED_COUNT)

    @pytest.mark.parametrize(
        "policy, error",
        [
            (Policy.max_class(), IncompleteColouring),
            (Policy.lex_posterior(), IncompleteColouring),
            # b is unranked as well as uncoloured: the unranked norm is named
            (Policy.weak_order({"a": 0, "c": 0}), UnknownNormId),
        ],
        ids=["max-class", "lex-posterior", "weak-order"],
    )
    def test_uncoloured_norm_is_rejected(self, policy, error):
        # b and c have no colour; b comes first in insertion order
        g = make_graph("abc", [("a", "b")])
        phi = Colouring({"a": 0}, 1)
        with pytest.raises(error, match="'b'"):
            rank_colours(g, phi, policy)


def _policies_for(g, rng):
    """Every built-in policy in both modes, lex posterior in both directions
    and a weak order whose small ranks tie, for g."""
    tied = {v: rng.randint(-2, 2) for v in g.ids}
    return [Policy.max_class()] + [
        policy
        for mode in ScoreMode
        for policy in (
            Policy.lex_posterior(mode),
            Policy.lex_posterior(mode, prefer_recent=True),
            Policy.lex_superior(mode),
            Policy.lex_specialis(mode),
            Policy.weak_order(tied, mode),
        )
    ]


@pytest.mark.parametrize("seed", range(6))
def test_the_mask_kernel_scores_each_norm_as_the_graph_kernel(seed):
    # the bench scores on neighbour masks, the algorithms on the graph: per
    # norm, for 0-20 norms whose small metadata ties and whose antecedent
    # sets are often incomparable
    rng = random.Random(seed)
    for n in range(21):
        ids = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.3]
        antecedents = {v: rng.sample("pqr", rng.randint(0, 2)) for v in ids}
        g = make_graph(ids, pairs, declared_at={v: rng.randint(0, 3) for v in ids},
                       authority_rank={v: rng.randint(0, 3) for v in ids},
                       antecedents=antecedents)
        nb = [sum(1 << j for j in g._adj[i]) for i in range(n)]
        for policy in _policies_for(g, rng):
            masks = policies._score_masks(policy, g.norms)
            assert (masks is None) is (policy.kind is PolicyKind.MAX_CLASS)
            # max-class: no masks, and both kernels score every norm 1
            assert bench._scores(nb, masks) == policies._norm_scores(g, policy), policy


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

    def test_an_empty_class_scores_zero(self):
        # class 1 has no member: it ranks between class 2 (+1) and class 0 (-1)
        g = make_graph("abc", [("a", "b")], declared_at={"a": 1, "b": 2, "c": 3})
        phi = Colouring({"a": 2, "b": 0, "c": 2}, 3)
        assert rank_colours(g, phi, Policy.lex_posterior()) == [2, 1, 0]
        assert rank_colours(g, phi, Policy.max_class()) == [2, 0, 1]

    def test_a_callable_is_called_once_per_class(self, fork_graph):
        phi = dsatur(fork_graph)
        calls = []

        def heuristic(graph, colouring, colour):
            calls.append(colour)
            return 0.0

        assert rank_colours(fork_graph, phi, heuristic) == [0, 1]
        assert calls == [0, 1]


class TestMetadataOrder:
    """The class of the norm that a built-in policy prefers ranks first. In
    each case but prefer_recent's that is b's class, which the tie-break to
    the lower colour id would not put first."""

    def test_earlier_declaration_ranks_higher(self):
        g = make_graph("ab", [("a", "b")], declared_at={"a": 2, "b": 1})
        phi = dsatur(g)
        assert rank_colours(g, phi, Policy.lex_posterior())[0] == phi.assignment["b"]

    def test_prefer_recent_flips(self):
        g = make_graph("ab", [("a", "b")], declared_at={"a": 2, "b": 1})
        phi = dsatur(g)
        policy = Policy.lex_posterior(prefer_recent=True)
        assert rank_colours(g, phi, policy)[0] == phi.assignment["a"]

    def test_stronger_authority_ranks_higher(self):
        g = make_graph("ab", [("a", "b")], authority_rank={"a": 1, "b": 5})
        phi = dsatur(g)
        assert rank_colours(g, phi, Policy.lex_superior())[0] == phi.assignment["b"]

    def test_more_specific_antecedents_rank_higher(self):
        g = make_graph("ab", [("a", "b")], antecedents={"a": {"p", "q"}, "b": {"p"}})
        phi = dsatur(g)
        assert rank_colours(g, phi, Policy.lex_specialis())[0] == phi.assignment["b"]


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

    def test_needs_ranks_for_members_and_their_neighbours_only(self):
        g = make_graph("abx", [("a", "b")])
        ranks = {"a": 2, "b": 1}
        assert score_admitted_set(g, {"a"}, ranks) == 1
        assert score_admitted_set(g, {"b"}, ranks) == -1
        with pytest.raises(UnknownNormId, match="'x'"):
            score_admitted_set(g, {"a", "x"}, ranks)

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


def test_max_class_prefers_nothing():
    g = make_graph(
        "abc",
        [("a", "b"), ("b", "c")],
        declared_at={"a": 1, "b": 2, "c": 3},
        authority_rank={"a": 3, "b": 2, "c": 1},
    )
    policy = Policy.max_class()
    # the scoring cores key nothing: every norm scores 1, so none is preferred to another
    assert policies._norm_scores(g, policy) == [1, 1, 1]
    assert policies._score_masks(policy, g.norms) is None
    assert bench._scores([0b010, 0b101, 0b010], None) == [1, 1, 1]
    # so each class totals its size: {b} and {a, c} on this path
    phi = dsatur(g)
    sizes = [list(phi.assignment.values()).count(c) for c in range(phi.num_colours)]
    assert class_totals(g, phi, policy) == sizes and sorted(sizes) == [1, 2]


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
