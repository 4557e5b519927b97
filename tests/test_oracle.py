import random
import re
from itertools import combinations

import pytest

from normcolour import SchemaError, TooLarge, UnknownNormId
from normcolour.documents import parse_norm_document
from normcolour.oracle import (
    _below,
    chromatic_number,
    is_admissible,
    is_complete_extension,
    is_conflict_free,
    is_stable_extension,
    max_cardinality_admissible,
    random_drop,
    report,
)

from .conftest import complete_graph, data_text, make_graph


@pytest.fixture(scope="module")
def g6():
    return parse_norm_document(data_text("g6.json"))


@pytest.fixture
def k2_plus_isolated():
    return make_graph("abx", [("a", "b")])


class TestConflictFree:
    def test_empty_set(self, k2_plus_isolated):
        assert is_conflict_free(k2_plus_isolated, set())

    def test_conflicting_pair(self, k2_plus_isolated):
        assert not is_conflict_free(k2_plus_isolated, {"a", "b"})

    def test_independent_trio_in_g6(self, g6):
        assert is_conflict_free(g6, {"x", "y", "z"})

    def test_unknown_member(self, k2_plus_isolated):
        with pytest.raises(UnknownNormId):
            is_conflict_free(k2_plus_isolated, {"nope"})
        # the first unknown id in input order is named, whatever the hash seed
        with pytest.raises(UnknownNormId, match="'p'"):
            report(k2_plus_isolated, ["a", "p", "q", "r", "s"])


class TestAdmissible:
    def test_empty_set(self, k2_plus_isolated):
        assert is_admissible(k2_plus_isolated, set())

    def test_any_singleton_defends_itself(self, g6):
        for v in g6.ids:
            assert is_admissible(g6, {v})

    def test_conflicting_pair(self, k2_plus_isolated):
        assert not is_admissible(k2_plus_isolated, {"a", "b"})

    def test_matches_conflict_freeness_on_all_subsets(self):
        g = make_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        for size in range(len(g) + 1):
            for subset in combinations(g.ids, size):
                assert is_admissible(g, subset) == is_conflict_free(g, subset)


class TestCompleteExtension:
    def test_must_contain_unattacked_vertices(self, k2_plus_isolated):
        assert not is_complete_extension(k2_plus_isolated, {"a"})
        assert is_complete_extension(k2_plus_isolated, {"a", "x"})

    def test_empty_set_on_edgeless_graph(self):
        g = make_graph("abc")
        assert not is_complete_extension(g, set())

    def test_full_vertex_set_of_edgeless_graph(self):
        g = make_graph("abc")
        assert is_complete_extension(g, set(g.ids))

    def test_empty_set_complete_when_nothing_is_defended(self):
        # on a path, no argument is acceptable wrt the empty set because
        # nothing attacks its attacker, so the empty set is complete
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        assert is_complete_extension(g, set())

    def test_implies_admissible(self, g6):
        rng = random.Random(5)
        for _ in range(50):
            subset = {v for v in g6.ids if rng.random() < 0.5}
            if is_complete_extension(g6, subset):
                assert is_admissible(g6, subset)


class TestStableExtension:
    def test_must_attack_every_outside_norm(self):
        g = make_graph("abc", [("a", "b"), ("b", "c")])
        assert is_stable_extension(g, {"b"})
        assert is_stable_extension(g, {"a", "c"})
        assert not is_stable_extension(g, {"a"})  # c is not attacked
        assert not is_stable_extension(g, set())

    def test_must_be_conflict_free(self, k2_plus_isolated):
        assert not is_stable_extension(k2_plus_isolated, {"a", "b", "x"})
        assert is_stable_extension(k2_plus_isolated, {"b", "x"})

    def test_complete_extension_need_not_be_stable(self):
        # the empty set is the grounded, hence complete, extension of a path
        g = make_graph("ab", [("a", "b")])
        assert is_complete_extension(g, set())
        assert not is_stable_extension(g, set())

    def test_edgeless_and_empty_graphs(self):
        g = make_graph("abc")
        assert is_stable_extension(g, g.ids)
        assert not is_stable_extension(g, {"a", "b"})
        assert is_stable_extension(make_graph(""), set())

    def test_unknown_member(self, k2_plus_isolated):
        with pytest.raises(UnknownNormId, match="'nope'"):
            is_stable_extension(k2_plus_isolated, ["a", "nope"])


class TestMaxCardinalityAdmissible:
    def test_g6_has_exactly_three(self, g6):
        result = max_cardinality_admissible(g6)
        assert len(result) == 3
        assert result == {"x", "y", "z"}

    def test_triangle(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert len(max_cardinality_admissible(g)) == 1

    def test_five_cycle_against_subset_enumeration(self):
        g = make_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        best = max(
            (s for size in range(6) for s in combinations(g.ids, size) if is_conflict_free(g, s)),
            key=len,
        )
        result = max_cardinality_admissible(g)
        assert len(result) == len(best) == 2
        assert is_conflict_free(g, result)

    def test_ties_break_lexicographically(self):
        g = make_graph(["b", "a"], [("b", "a")])
        assert max_cardinality_admissible(g) == {"a"}

    def test_budget_cap(self):
        g = make_graph([f"v{i}" for i in range(25)])
        with pytest.raises(TooLarge):
            max_cardinality_admissible(g)


class TestChromaticNumber:
    def test_triangle(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert chromatic_number(g) == 3

    def test_g6(self, g6):
        assert chromatic_number(g6) == 3

    def test_even_cycle_is_bipartite(self):
        g = make_graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")])
        assert chromatic_number(g) == 2

    def test_empty_and_edgeless(self):
        assert chromatic_number(make_graph([])) == 0
        assert chromatic_number(make_graph("abc")) == 1

    def test_complete_graph(self):
        assert chromatic_number(complete_graph("abcdef")) == 6

    def test_budget_cap(self):
        g = make_graph([f"v{i}" for i in range(17)])
        with pytest.raises(TooLarge):
            chromatic_number(g)


class TestRandomDrop:
    def test_edgeless_graph_keeps_everything(self):
        g = make_graph("abc")
        assert random_drop(g, random.Random(0)) == {"a", "b", "c"}

    def test_k2_keeps_exactly_one(self):
        g = make_graph("ab", [("a", "b")])
        assert len(random_drop(g, random.Random(1))) == 1

    def test_k3_keeps_exactly_one(self):
        g = make_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        for seed in range(20):
            assert len(random_drop(g, random.Random(seed))) == 1

    def test_always_conflict_free(self):
        rng = random.Random(7)
        g = make_graph(
            "abcdefgh",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "h"), ("a", "h"), ("b", "g")],
        )
        for _ in range(50):
            assert is_conflict_free(g, random_drop(g, rng))

    def test_deterministic_for_a_seed(self):
        g = complete_graph("abcde")
        assert random_drop(g, random.Random(42)) == random_drop(g, random.Random(42))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 17, 1000, 2**40 + 3])
    def test_below_draws_as_the_running_interpreters_randrange(self, n):
        # random drop's draws rest on _below; if a Python release changes
        # randrange's algorithm, this test names it while the goldens keep the old draws
        for seed in range(300):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert [_below(ours, n) for _ in range(4)] == [theirs.randrange(n) for _ in range(4)]
            assert ours.random() == theirs.random()  # the same bits drawn

    @pytest.mark.parametrize("g", [complete_graph("abc"), make_graph("abc")], ids=["k3", "edgeless"])
    def test_an_rng_that_is_not_a_random_is_refused(self, g):
        with pytest.raises(SchemaError, match="^rng: expected a random.Random, not NoneType$"):
            random_drop(g, None)


def test_report_flags(k2_plus_isolated):
    rep = report(k2_plus_isolated, {"a", "b"})
    assert (rep.conflict_free, rep.admissible, rep.complete) == (False, False, False)
    rep = report(k2_plus_isolated, {"a", "x"})
    assert (rep.conflict_free, rep.admissible, rep.complete) == (True, True, True)
    assert rep.members == {"a", "x"}


@pytest.mark.parametrize(
    "check", [report, is_conflict_free, is_admissible, is_complete_extension, is_stable_extension]
)
@pytest.mark.parametrize("members, shown", [(None, "None"), (5, "5"), ("ab", "a string")])
def test_members_must_be_an_iterable_of_ids(k2_plus_isolated, check, members, shown):
    # a str is refused, not read as the set of its letters
    message = f"members: expected an iterable of norm ids, not {shown}"
    with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
        check(k2_plus_isolated, members)
